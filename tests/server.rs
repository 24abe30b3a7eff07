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
use low_congestion_shortcuts::core::dist::{DistConfig, DistMode};
use low_congestion_shortcuts::facade::{Backend, Session, SessionConfig, SessionPartwiseOps};
use low_congestion_shortcuts::graph::{gen, NodeId};
use serde::{Serialize, Value};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
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
            ("kind", Value::Str("grid".to_string())),
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

/// The round cap over the socket. An *op* run cut short is a 200 whose
/// report says `"truncated": true` (aggregate, and the Boruvka family,
/// which stops at its first truncated run); a *construction* cut short on
/// a simulating backend is a structured 422 `truncated` that caches
/// nothing. Neither reaches the panic fence, and the session keeps
/// serving.
#[test]
fn op_responses_report_truncated_runs() {
    let handle = start();
    let mut client = Client::new(handle.addr());
    let body = Value::object([
        ("values", Value::Arr(vec![Value::U64(1); 36])),
        ("op", Value::Str("sum".to_string())),
    ]);
    let capped = |max_rounds| SimConfig {
        max_rounds,
        ..SimConfig::default()
    };
    let spec_with = |max_rounds, backend: Option<Backend>| {
        let config = SessionConfig {
            sim: capped(max_rounds),
            ..SessionConfig::default()
        };
        let mut spec = grid_spec(6, 6);
        if let Value::Obj(fields) = &mut spec {
            fields.push(("config".to_string(), config.to_value()));
            fields.extend(backend.map(|b| ("backend".to_string(), b.to_value())));
        }
        spec
    };
    let post = |client: &mut Client, id: &str, op: &str, body: &Value| {
        let r = client.post(&format!("/sessions/{id}/{op}"), body);
        r.unwrap_or_else(|e| panic!("{op}: {e}"))
    };
    let mut ids = Vec::new();
    for (max_rounds, expected) in [(2, true), (1_000_000, false)] {
        let id = create(&mut client, &spec_with(max_rounds, None));
        let agg = post(&mut client, &id, "aggregate", &body);
        assert_eq!(agg.status, 200);
        assert_eq!(
            agg.field("truncated"),
            Some(&Value::Bool(expected)),
            "max_rounds = {max_rounds}"
        );
        let weights = Value::object([("weights", Value::Arr(vec![Value::U64(1); 60]))]);
        for (op, args) in [("mst", &weights), ("mincut", &Value::object([]))] {
            let r = post(&mut client, &id, op, args);
            assert_eq!(
                (r.status, r.field("truncated")),
                (200, Some(&Value::Bool(expected))),
                "{op} at max_rounds = {max_rounds}"
            );
        }
        ids.push(id);
    }

    let id = create(
        &mut client,
        &spec_with(2, Some(Backend::Distributed(capped(2)))),
    );
    for (op, args) in [
        ("prepare", &Value::object([])),
        ("quality", &Value::object([])),
        ("aggregate", &body),
    ] {
        let r = post(&mut client, &id, op, args);
        assert_eq!(
            (r.status, r.field("error")),
            (422, Some(&Value::Str("truncated".to_string()))),
            "{op}: {}",
            lcs_server::json::render(&r.body)
        );
    }
    ids.push(id);

    for id in &ids {
        let stats = post(&mut client, id, "cache_stats", &Value::object([]));
        assert_eq!(stats.status, 200, "{id} keeps serving");
        let full = stats.field("full").expect("full-artifact counters");
        // The refused construction was not counted as a build.
        assert_eq!(
            get_u64(full, "builds"),
            u64::from(id != ids.last().unwrap())
        );
    }
    let metrics = client.get("/metrics").unwrap();
    let server_stats = lcs_server::json::lookup(&metrics.body, "server").expect("server stats");
    assert_eq!(get_u64(server_stats, "worker_panics"), 0);
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
    // A served aggregate says whether it paid for the offer wave: the
    // first one roots every part, the second is served from those trees.
    let again = client
        .post(&format!("/sessions/{id}/aggregate"), &body)
        .expect("warm aggregate");
    assert_eq!(result_values(&again), expected);
    let rooted =
        |r: &lcs_server::client::Response| get_u64(r.field("result").unwrap(), "rooted_parts");
    assert_eq!((rooted(&agg), rooted(&again)), (0, rows));
    assert!(get_u64(&again.body, "messages") < get_u64(&agg.body, "messages"));

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
    // Gossip rides the trees the aggregates rooted: the warm aggregate's
    // `Up` / `Down` and nothing else.
    assert_eq!(rooted(&gossip), rows);
    assert_eq!(
        get_u64(&gossip.body, "messages"),
        get_u64(&again.body, "messages")
    );

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

    // Weights are an argument of `mst`, not session state: the retired
    // weight mutations are unknown ops, answered with the op list.
    for (op, body) in [
        ("update_weights", &b"{\"changes\": [[0, 1]]}"[..]),
        ("set_weights", b"{\"weights\": [1]}"),
    ] {
        let r = client
            .post_raw(&format!("/sessions/{id}/{op}"), body)
            .unwrap();
        expect(&r, 404, "not_found");
        let message = r.field("message").expect("a message");
        assert!(
            matches!(message, Value::Str(m) if m.contains("mst") && m.contains("set_partition")),
            "{message:?}"
        );
    }

    // A spec key the server does not have is refused by name, not built
    // into a session other than the one described.
    for (key, body) in [
        (
            "weights",
            &br#"{"graph":{"kind":"grid","rows":4,"cols":4},"weights":[1,2,3]}"#[..],
        ),
        (
            "partiton",
            br#"{"graph":{"kind":"grid","rows":4,"cols":4},"partiton":"none"}"#,
        ),
    ] {
        let r = client.post_raw("/sessions", body).unwrap();
        expect(&r, 422, "bad_args");
        let message = r.field("message").expect("a message");
        let names = [key, "graph", "partition", "backend", "config"];
        assert!(
            matches!(message, Value::Str(m) if names.iter().all(|n| m.contains(&format!("`{n}`")))),
            "{message:?}"
        );
    }

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

    // A node the graph does not have is the partition's fault under its
    // own code at create, and an invalid mutation on a live session.
    let r = client
        .post_raw(
            "/sessions",
            br#"{"graph":{"kind":"grid","rows":4,"cols":4},"partition":[[0,99]]}"#,
        )
        .unwrap();
    expect(&r, 422, "partition_out_of_range");
    let r = client
        .post_raw(
            &format!("/sessions/{id}/set_partition"),
            b"{\"partition\": [[0, 99]]}",
        )
        .unwrap();
    expect(&r, 409, "invalid_mutation");

    // The same connection (reconnected after the 413 close) still serves.
    let r = client.get("/health").unwrap();
    assert_eq!(r.status, 200);
    let metrics = client.get("/metrics").unwrap();
    let server_stats = lcs_server::json::lookup(&metrics.body, "server").expect("server stats");
    assert_eq!(get_u64(server_stats, "worker_panics"), 0);

    handle.shutdown();
}

/// A sketch backend of capacity `t < 2` deserializes, but the detection
/// program asserts on it mid-construction: the spec must be refused where
/// it enters (422 naming the field), not answered by the panic fence on
/// the first `prepare`.
#[test]
fn degenerate_sketch_capacity_is_refused_at_create() {
    let handle = start();
    let mut client = Client::new(handle.addr());
    let spec_with_capacity = |t: usize| {
        let backend = Backend::Sketch(DistConfig {
            mode: DistMode::Sketch {
                t,
                hash_seed: 7,
                cut_factor: 1.0,
            },
            sim: SimConfig::default(),
        });
        let mut spec = grid_spec(4, 4);
        if let Value::Obj(fields) = &mut spec {
            fields.push(("backend".to_string(), backend.to_value()));
        }
        spec
    };
    for t in [0, 1] {
        let r = client.post("/sessions", &spec_with_capacity(t)).unwrap();
        assert_eq!(
            (r.status, r.field("error")),
            (422, Some(&Value::Str("bad_args".to_string()))),
            "t = {t}: {}",
            lcs_server::json::render(&r.body)
        );
        let Some(Value::Str(message)) = r.field("message") else {
            panic!("t = {t}: no message");
        };
        assert!(
            message.contains("`backend.Sketch.mode.Sketch.t`"),
            "{message}"
        );
    }
    // The same connection keeps serving, a working capacity included.
    let id = create(&mut client, &spec_with_capacity(2));
    let r = client
        .post_raw(&format!("/sessions/{id}/prepare"), b"{}")
        .unwrap();
    assert_eq!(r.status, 200, "{}", lcs_server::json::render(&r.body));
    let metrics = client.get("/metrics").unwrap();
    let server_stats = lcs_server::json::lookup(&metrics.body, "server").expect("server stats");
    assert_eq!(get_u64(server_stats, "worker_panics"), 0);

    handle.shutdown();
}

/// A family spec whose size product overflows `u64` (2³²·2³² and
/// 2²²·2²¹·2²¹ both wrap to 0) used to pass the size checks as an empty
/// graph and die in the generator behind the panic fence; it is a typed
/// 422 like any other oversized graph.
#[test]
fn overflowing_graph_sizes_are_refused_not_panicked_on() {
    let handle = start();
    let mut client = Client::new(handle.addr());
    for graph in [
        r#"{"kind":"grid","rows":4294967296,"cols":4294967296}"#,
        r#"{"kind":"grid_of_cliques","rows":4194304,"cols":2097152,"r":2097152}"#,
    ] {
        let body = format!("{{\"graph\":{graph}}}");
        let r = client.post_raw("/sessions", body.as_bytes()).unwrap();
        assert_eq!(
            (r.status, r.field("error")),
            (422, Some(&Value::Str("graph_too_large".to_string()))),
            "{graph}: {}",
            lcs_server::json::render(&r.body)
        );
    }
    // The same connection keeps serving.
    create(&mut client, &grid_spec(4, 4));
    let metrics = client.get("/metrics").unwrap();
    let server_stats = lcs_server::json::lookup(&metrics.body, "server").expect("server stats");
    assert_eq!(get_u64(server_stats, "worker_panics"), 0);
    handle.shutdown();
}

/// A disconnected graph never reaches an assert. On two paths `0-1-2` and
/// `3-4-5` (the session tree spans node 0's) every op endpoint answers 200
/// or a structured 4xx: a partition with a part in the other component is
/// refused where it is installed — create (422, before the graph takes a
/// registry slot) and `set_partition` (409) — and a unicast endpoint there
/// is a 422, instead of the sweep's and the router's asserts behind the
/// panic fence (500 + `worker_panics`).
#[test]
fn disconnected_graphs_never_reach_an_assert() {
    let mut path = std::env::temp_dir();
    path.push(format!("lcs_server_two_paths_{}.json", std::process::id()));
    std::fs::write(&path, r#"{"n":6,"edges":[[0,1],[1,2],[3,4],[4,5]]}"#).unwrap();
    let spec = |partition: &str| {
        let path = path.to_str().expect("utf-8 temp path");
        format!(
            r#"{{"graph":{{"kind":"edge_list_json","path":"{path}"}},"partition":{partition}}}"#
        )
    };
    let handle = start();
    let mut client = Client::new(handle.addr());
    let graphs = |client: &mut Client| {
        let metrics = client.get("/metrics").unwrap();
        let server = lcs_server::json::lookup(&metrics.body, "server").expect("server stats");
        assert_eq!(get_u64(server, "worker_panics"), 0);
        let registry = lcs_server::json::lookup(&metrics.body, "registry").expect("registry");
        get_u64(registry, "graphs")
    };

    for partition in ["[[3,4,5]]", r#""singletons""#, r#"{"kind":"singletons"}"#] {
        let r = client.post_raw("/sessions", spec(partition).as_bytes());
        let r = r.unwrap();
        assert_eq!(
            (r.status, r.field("error")),
            (422, Some(&Value::Str("partition_off_tree".to_string()))),
            "{partition}: {}",
            lcs_server::json::render(&r.body)
        );
    }
    assert_eq!(graphs(&mut client), 0, "a refused create leaks no graph");

    let mut expect = |path: &str, body: &str, status: u16, error: Option<&str>| {
        let r = client.post_raw(path, body.as_bytes()).unwrap();
        let code = error.map(|code| Value::Str(code.to_string()));
        assert_eq!(
            (r.status, r.field("error")),
            (status, code.as_ref()),
            "POST {path} {body}: {}",
            lcs_server::json::render(&r.body)
        );
        r
    };

    // `s0` has no partition, `s1` two parts on node 0's side.
    let none = expect("/sessions", &spec(r#""none""#), 200, None);
    assert_eq!(none.field("id"), Some(&Value::Str("s0".to_string())));
    expect("/sessions", &spec("[[0,1],[2]]"), 200, None);
    let values = r#"{"values":[1,2,3,4,5,6],"op":"max"}"#;
    let (bad_args, invalid) = (Some("bad_args"), Some("invalid_mutation"));
    for (op, body, status, error) in [
        ("s0/prepare", "{}", 422, bad_args),
        ("s0/quality", "{}", 422, bad_args),
        ("s0/aggregate", values, 422, bad_args),
        ("s0/gossip", values, 422, bad_args),
        ("s0/unicast", r#"{"demands":[[0,2]]}"#, 200, None),
        ("s0/unicast", r#"{"demands":[[0,4]]}"#, 422, bad_args),
        ("s0/unicast", r#"{"demands":[[3,5]]}"#, 422, bad_args),
        ("s0/mst", r#"{"weights":[4,3,2,1]}"#, 200, None),
        ("s0/components", "{}", 200, None),
        ("s0/mincut", "{}", 422, bad_args),
        (
            "s0/set_partition",
            r#"{"partition":[[3,4,5]]}"#,
            409,
            invalid,
        ),
        ("s0/reassign_parts", r#"{"moves":[[3,0]]}"#, 409, invalid),
        ("s1/prepare", "{}", 200, None),
        ("s1/quality", "{}", 200, None),
        ("s1/aggregate", values, 200, None),
        ("s1/gossip", values, 200, None),
        ("s1/unicast", r#"{"demands":[[2,0],[1,4]]}"#, 422, bad_args),
        (
            "s1/set_partition",
            r#"{"partition":[[0,1],[4,5]]}"#,
            409,
            invalid,
        ),
        ("s1/reassign_parts", r#"{"moves":[[3,0]]}"#, 409, invalid),
        ("s1/reassign_parts", r#"{"moves":[[1,1]]}"#, 200, None),
        (
            "s1/set_partition",
            r#"{"partition":[[0],[1,2]]}"#,
            200,
            None,
        ),
        ("s1/mst", r#"{"weights":[1,2,3,4]}"#, 200, None),
        ("s1/components", "{}", 200, None),
        ("s1/mincut", "{}", 422, bad_args),
    ] {
        expect(&format!("/sessions/{op}"), body, status, error);
    }

    // Both sessions still serve, on the same connection.
    let components = expect("/sessions/s0/components", "{}", 200, None);
    let result = components.field("result").expect("op result");
    assert_eq!(get_u64(result, "count"), 2);
    let served = expect("/sessions/s1/aggregate", values, 200, None);
    assert_eq!(result_values(&served), vec![Some(1), Some(3)]);

    assert_eq!(graphs(&mut client), 1, "one graph, leaked once");
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// One notation end to end: a `config.partition_source` written in the
/// `kind` form (and no `partition`) builds the session, and the spec echo
/// spells `graph` and `config.partition_source` the way the sources
/// serialize themselves.
#[test]
fn config_partition_source_speaks_the_kind_notation() {
    use low_congestion_shortcuts::core::{GeneratorSpec, GraphSource};

    let handle = start();
    let mut client = Client::new(handle.addr());
    let voronoi = r#"{"kind":"voronoi","parts":3,"seed":7}"#;
    let Value::Obj(mut config) = SessionConfig::default().to_value() else {
        panic!("configs serialize to objects");
    };
    for (key, value) in &mut config {
        if key == "partition_source" {
            *value = lcs_server::json::parse(voronoi.as_bytes()).unwrap();
        }
    }
    let graph = GraphSource::Generator(GeneratorSpec::Path { n: 12 });
    let spec = Value::object([("graph", graph.to_value()), ("config", Value::Obj(config))]);
    let id = create(&mut client, &spec);

    let body = Value::object([("values", Value::Arr(vec![Value::U64(1); 12]))]);
    let agg = client
        .post(&format!("/sessions/{id}/aggregate"), &body)
        .expect("aggregate");
    assert_eq!(agg.status, 200, "{}", lcs_server::json::render(&agg.body));
    let sums = result_values(&agg);
    assert_eq!(sums.len(), 3, "the config's source partitioned the path");
    assert_eq!(sums.iter().flatten().sum::<u64>(), 12);

    let info = client.get(&format!("/sessions/{id}")).unwrap();
    let echoed = info.field("spec").expect("spec echo");
    let field = |v: &Value, name: &str| lcs_server::json::lookup(v, name).cloned().unwrap();
    let echoed_graph = lcs_server::json::render(&field(echoed, "graph"));
    assert_eq!(echoed_graph, r#"{"kind":"path","n":12}"#);
    assert_eq!(echoed_graph, serde_json::to_string(&graph).unwrap());
    let echoed_source = field(&field(echoed, "config"), "partition_source");
    assert_eq!(lcs_server::json::render(&echoed_source), voronoi);
    handle.shutdown();
}

/// The config and backend parsers skip keys they do not know, so the
/// server compares the posted `config` and `backend` with what it
/// understood: a deleted setting or a typo is a 422 `bad_args` naming the
/// key's path, never a session built without it. The `/defaults` body
/// itself is served.
#[test]
fn config_keys_the_server_does_not_have_are_refused() {
    let handle = start();
    let mut client = Client::new(handle.addr());
    let defaults = client.get("/defaults").expect("defaults");
    assert_eq!(defaults.status, 200);
    let config = defaults.field("config").expect("defaults carry a config");
    let spec_with = |field: &str, value: Value| {
        let mut spec = grid_spec(4, 4);
        let Value::Obj(fields) = &mut spec else {
            unreachable!("a spec is an object");
        };
        fields.push((field.to_string(), value));
        spec
    };
    create(&mut client, &spec_with("config", config.clone()));

    // `key` spliced into `value` at the dotted `block` (`""`: at the top).
    let mut refused = |field: &str, mut value: Value, block: &str, key: &str, path: &str| {
        let mut at = &mut value;
        for name in block.split('.').filter(|name| !name.is_empty()) {
            let Value::Obj(fields) = at else {
                panic!("`{block}` is no object block");
            };
            let found = fields.iter_mut().find(|(k, _)| k == name);
            at = &mut found.unwrap_or_else(|| panic!("no block `{name}`")).1;
        }
        let Value::Obj(fields) = at else {
            panic!("`{block}` is no object block");
        };
        fields.push((key.to_string(), Value::U64(1)));
        let r = client.post("/sessions", &spec_with(field, value)).unwrap();
        let body = lcs_server::json::render(&r.body);
        let code = Some(Value::Str("bad_args".to_string()));
        assert_eq!((r.status, r.field("error").cloned()), (422, code), "{body}");
        assert!(body.contains(&format!("`{path}`")), "{body}");
    };
    for (block, key, path) in [
        ("sim", "seed", "config.sim.seed"),
        ("sim", "sed", "config.sim.sed"),
        ("sim", "bandwidth_bits", "config.sim.bandwidth_bits"),
        ("", "mst", "config.mst"),
        ("", "aggregate", "config.aggregate"),
        ("", "mincut", "config.mincut"),
        ("", "unicast", "config.unicast"),
        ("", "shortcut", "config.shortcut"),
    ] {
        refused("config", config.clone(), block, key, path);
    }
    let distributed = Backend::Distributed(SimConfig::default());
    let sketch = Backend::Sketch(DistConfig::default());
    for (backend, block, key, path) in [
        (distributed, "Distributed", "sed", "backend.Distributed.sed"),
        (
            sketch,
            "Sketch.sim",
            "bandwidth_bits",
            "backend.Sketch.sim.bandwidth_bits",
        ),
    ] {
        refused("backend", backend.to_value(), block, key, path);
    }
    let listed = client.get("/sessions").unwrap();
    let Some(Value::Arr(sessions)) = listed.field("sessions") else {
        panic!("no session list");
    };
    assert_eq!(sessions.len(), 1, "no refused spec built a session");
    handle.shutdown();
}

/// Writes `bytes` on a fresh connection, half-closes it, and returns
/// everything the server wrote before it closed its side. A reset while
/// the server still had unread input counts as its close.
fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    // The server may answer and close before it has read everything.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut received = Vec::new();
    match stream.read_to_end(&mut received) {
        Ok(_) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("the server neither answered nor closed: {e}"),
    }
    received
}

/// The statuses in `received`, which must be a sequence of complete
/// responses: an `HTTP/1.1` status line, a `Content-Length`, and exactly
/// that many bytes of JSON.
fn response_statuses(mut received: &[u8], label: &str) -> Vec<u16> {
    let mut statuses = Vec::new();
    while !received.is_empty() {
        let head_len = received
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .unwrap_or_else(|| panic!("{label}: response head never ends"))
            + 4;
        let head = std::str::from_utf8(&received[..head_len])
            .unwrap_or_else(|_| panic!("{label}: response head is not UTF-8"));
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.strip_prefix("HTTP/1.1 "))
            .and_then(|rest| rest.split(' ').next())
            .and_then(|code| code.parse().ok())
            .unwrap_or_else(|| panic!("{label}: bad status line in {head:?}"));
        let body_len: usize = lines
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .and_then(|len| len.parse().ok())
            .unwrap_or_else(|| panic!("{label}: no Content-Length in {head:?}"));
        let rest = &received[head_len..];
        assert!(rest.len() >= body_len, "{label}: response body cut short");
        let (body, next) = rest.split_at(body_len);
        assert!(
            !body.is_empty() && lcs_server::json::parse(body).is_ok(),
            "{label}: response body is not JSON: {:?}",
            String::from_utf8_lossy(body)
        );
        statuses.push(status);
        received = next;
    }
    statuses
}

/// Byte-level robustness of the HTTP and JSON layers: every proper prefix
/// of one valid aggregate request, and every head byte and each of the
/// first 256 body bytes XOR-ed with three masks (neighbouring character,
/// case / separator flip, non-ASCII), goes out on its own raw connection.
/// Each connection must end in well-formed 2xx/4xx JSON answers or a
/// plain close — never a 5xx, a torn response, or a dead worker.
#[test]
fn truncated_and_mutated_requests_never_break_a_worker() {
    let handle = start();
    let addr = handle.addr();
    let mut client = Client::new(addr);
    let id = create(&mut client, &grid_spec(8, 8));

    let values: Vec<u64> = (1000..1064).collect();
    let body = lcs_server::json::render(&Value::object([
        ("values", values.to_value()),
        ("op", Value::Str("sum".to_string())),
    ]));
    assert!(
        body.len() > 256,
        "the mutated window must lie inside the body"
    );
    let head = format!(
        "POST /sessions/{id}/aggregate HTTP/1.1\r\nHost: lcs\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    );
    let request = [head.as_bytes(), body.as_bytes()].concat();
    assert_eq!(
        response_statuses(&raw_exchange(addr, &request), "intact"),
        [200]
    );

    let check = |bytes: &[u8], label: String| {
        for status in response_statuses(&raw_exchange(addr, bytes), &label) {
            assert!(
                (200..300).contains(&status) || (400..500).contains(&status),
                "{label}: answered {status}"
            );
        }
    };
    for len in 0..request.len() {
        check(&request[..len], format!("prefix of {len} bytes"));
    }
    for at in 0..head.len() + 256 {
        for mask in [0x01, 0x20, 0x80] {
            let mut mutated = request.clone();
            mutated[at] ^= mask;
            check(&mutated, format!("byte {at} ^ {mask:#04x}"));
        }
    }

    let metrics = client.get("/metrics").unwrap();
    let server_stats = lcs_server::json::lookup(&metrics.body, "server").expect("server stats");
    assert_eq!(get_u64(server_stats, "worker_panics"), 0);
    assert_eq!(client.get("/health").unwrap().status, 200);

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

/// No sequence of creates wedges the server: graphs live and die with
/// their sessions, so the 40th distinct graph is served like the first
/// (a capped graph table used to answer 409 from the 33rd on).
#[test]
fn distinct_graphs_never_fill_the_server() {
    let handle = start();
    let mut client = Client::new(handle.addr());
    for n in 2..42 {
        let spec = Value::object([(
            "graph",
            Value::object([
                ("kind", Value::Str("path".to_string())),
                ("n", Value::U64(n)),
            ]),
        )]);
        create(&mut client, &spec);
    }
    let metrics = client.get("/metrics").unwrap();
    let registry = lcs_server::json::lookup(&metrics.body, "registry").expect("registry");
    let sessions = ServerConfig::default().session_capacity as u64;
    assert_eq!(get_u64(registry, "misses"), 40);
    assert_eq!(get_u64(registry, "sessions"), sessions);
    assert_eq!(get_u64(registry, "graphs"), sessions);
    assert_eq!(get_u64(registry, "evictions"), 40 - sessions);
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
    // across several ticks.
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
