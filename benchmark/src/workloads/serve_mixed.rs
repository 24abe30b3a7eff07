//! Two callers on one warm session behind the daemon.
//!
//! An in-process `lcs_server` on loopback serves a grid whose rows are the
//! parts. Two closed-loop keep-alive clients (callers that wait for each
//! reply) draw requests from a seeded schedule: 60 % `aggregate`, 25 %
//! `quality`, 9 % re-POST of the live spec, 6 % `reassign_parts`. One op is
//! one request. This is the only workload where socket, HTTP, JSON, the
//! registry and the per-session mutex are a visible share of the op, and
//! where two callers contend for one session.

use super::{aggregate_ok, cost_of, rng, seeded_values};
use crate::harness::Config;
use crate::harness::{span_capacity, ClientLog, Harness};
use crate::stats::{supported_tail, Samples};
use crate::trace::{Cost, Tracer};
use crate::{CORE, PARTWISE, SERVER};
use lcs_congest::protocols::AggOp;
use lcs_core::session::Session;
use lcs_graph::gen;
use lcs_partwise::SessionPartwiseOps;
use lcs_server::client::{Client, Response};
use lcs_server::{json, Server, ServerConfig};
use rand::Rng;
use serde::Value;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Grid rows each client toggles per `reassign_parts` request.
const MOVERS_PER_CLIENT: usize = 4;
/// Requests each client sends at least, so even the shortest run sees
/// every kind of request.
const MIN_REQUESTS: u64 = 40;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Aggregate,
    Quality,
    CreateHit,
    Reassign,
}

impl Kind {
    fn draw(r: &mut impl Rng) -> Kind {
        match r.gen_range(0..100u32) {
            0..=59 => Kind::Aggregate,
            60..=84 => Kind::Quality,
            85..=93 => Kind::CreateHit,
            _ => Kind::Reassign,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Aggregate => "aggregate",
            Kind::Quality => "quality",
            Kind::CreateHit => "create_hit",
            Kind::Reassign => "reassign",
        }
    }
}

/// What the clients share: where to send, what to send, what to expect.
struct Plan {
    addr: SocketAddr,
    session: String,
    side: usize,
    spec_body: String,
    aggregate_body: String,
    /// Per-row sums; the same under every interleaving of the clients'
    /// moves because mover nodes carry the value 0.
    expected_sums: Vec<Option<u64>>,
    cfg: Config,
    epoch: Instant,
}

/// The grid rows whose first node client `c` moves to the row above and
/// back. Rows are odd and distinct, so the touched part pairs are disjoint
/// across movers and clients and every move keeps both rows connected.
fn mover_rows(client: usize) -> impl Iterator<Item = usize> {
    (0..MOVERS_PER_CLIENT).map(move |j| 1 + 2 * (client * MOVERS_PER_CLIENT + j))
}

fn reassign_body(side: usize, client: usize, away: bool) -> String {
    let moves = mover_rows(client)
        .map(|row| {
            let target = if away { row - 1 } else { row };
            Value::Arr(vec![
                Value::U64((row * side) as u64),
                Value::U64(target as u64),
            ])
        })
        .collect();
    json::render(&Value::object([("moves", Value::Arr(moves))]))
}

fn u64_field(v: &Value, name: &str) -> Option<u64> {
    match json::lookup(v, name)? {
        Value::U64(x) => Some(*x),
        _ => None,
    }
}

fn is_true(v: &Value, name: &str) -> bool {
    matches!(json::lookup(v, name), Some(Value::Bool(true)))
}

fn response_cost(response: &std::io::Result<Response>) -> Cost {
    response.as_ref().map_or_else(
        |_| Cost::default(),
        |r| {
            let field = |name| u64_field(&r.body, name).unwrap_or(0);
            Cost::new(field("rounds"), field("messages"), field("bits"))
        },
    )
}

fn aggregate_response_ok(body: &Value, expected: &[Option<u64>]) -> bool {
    let Some(result) = json::lookup(body, "result") else {
        return false;
    };
    let sums = match json::lookup(result, "results") {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|v| match v {
                Value::U64(x) => Some(*x),
                _ => None,
            })
            .collect::<Vec<_>>(),
        _ => return false,
    };
    is_true(result, "all_members_informed") && sums == expected
}

fn client_loop(plan: &Plan, client: usize) -> ClientLog {
    let mut tr = Tracer::new(plan.epoch, client as u32, span_capacity(&plan.cfg));
    tr.set_recording(plan.cfg.trace);
    let mut log = ClientLog {
        tr,
        op_ms: Samples::default(),
        cost: Cost::default(),
        attempted: 0,
        failed: 0,
    };
    let mut http = Client::new(plan.addr).with_timeout(Duration::from_secs(30));
    let mut schedule = rng(plan.cfg.seed, 0xc11e + client as u32);
    let reassign_bodies = [
        reassign_body(plan.side, client, false),
        reassign_body(plan.side, client, true),
    ];
    let op_path = |op: &str| format!("/sessions/{}/{op}", plan.session);
    let (aggregate, quality, reassign) = (
        op_path("aggregate"),
        op_path("quality"),
        op_path("reassign_parts"),
    );
    let mut away = false;
    let started = Instant::now();
    while log.attempted < MIN_REQUESTS || started.elapsed().as_secs_f64() < plan.cfg.seconds {
        let kind = Kind::draw(&mut schedule);
        let (path, body) = match kind {
            Kind::Aggregate => (aggregate.as_str(), plan.aggregate_body.as_str()),
            Kind::Quality => (quality.as_str(), ""),
            Kind::CreateHit => ("/sessions", plan.spec_body.as_str()),
            Kind::Reassign => {
                away = !away;
                (
                    reassign.as_str(),
                    reassign_bodies[usize::from(away)].as_str(),
                )
            }
        };
        let t0 = Instant::now();
        let root = log.tr.begin_op(kind.name());
        let s = log.tr.begin(SERVER, "post");
        let response = http.post_raw(path, body.as_bytes());
        log.tr.end(s, response_cost(&response));
        log.cost.add(log.tr.end_op(root));
        log.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let ok = response.is_ok_and(|r| {
            r.status == 200
                && match kind {
                    Kind::Aggregate => aggregate_response_ok(&r.body, &plan.expected_sums),
                    Kind::Quality => is_true(&r.body, "all_connected"),
                    Kind::CreateHit => {
                        !is_true(&r.body, "created")
                            && matches!(r.field("id"), Some(Value::Str(id)) if *id == plan.session)
                    }
                    Kind::Reassign => matches!(
                        r.field("touched_parts"),
                        Some(Value::Arr(t)) if t.len() == 2 * MOVERS_PER_CLIENT
                    ),
                }
        });
        log.attempted += 1;
        if !ok {
            log.failed += 1;
        }
    }
    log
}

pub fn run(h: &mut Harness) {
    let side = if h.cfg.smoke { 16 } else { 32 };
    assert!(
        2 * CLIENTS * MOVERS_PER_CLIENT <= side,
        "mover rows must fit the grid"
    );
    h.clients = CLIENTS;
    let seed = h.cfg.seed;
    let mut values = seeded_values(side * side, seed);
    for client in 0..CLIENTS {
        for row in mover_rows(client) {
            values[row * side] = 0;
        }
    }
    let expected_sums: Vec<Option<u64>> = values
        .chunks(side)
        .map(|row| Some(row.iter().sum()))
        .collect();
    let spec_body = json::render(&Value::object([(
        "graph",
        Value::object([
            ("family", Value::Str("grid".to_string())),
            ("rows", Value::U64(side as u64)),
            ("cols", Value::U64(side as u64)),
        ]),
    )]));
    let aggregate_value = Value::object([
        (
            "values",
            Value::Arr(values.iter().map(|&x| Value::U64(x)).collect()),
        ),
        ("op", Value::Str("sum".to_string())),
    ]);
    let aggregate_body = json::render(&aggregate_value);

    loop {
        let last_setup = h.begin_setup();
        let s = h.tr.begin(SERVER, "start");
        let server = Server::start(ServerConfig {
            workers: CLIENTS,
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral loopback port");
        h.tr.end(s, Cost::default());
        let mut http = Client::new(server.addr());
        let s = h.tr.begin(SERVER, "create_miss");
        let created = http.post_raw("/sessions", spec_body.as_bytes());
        h.tr.end(s, Cost::default());
        let session = match created.as_ref().ok().and_then(|r| r.field("id")) {
            Some(Value::Str(id)) => id.clone(),
            _ => {
                h.require(false, "POST /sessions must return a session id");
                server.shutdown();
                return;
            }
        };
        let op_path = |op: &str| format!("/sessions/{session}/{op}");
        let prepared = http.post_raw(&op_path("prepare"), b"");
        // The first aggregate builds the session's op artifacts.
        let warm = http.post_raw(&op_path("aggregate"), aggregate_body.as_bytes());
        h.end_setup();
        if !last_setup {
            server.shutdown();
            continue;
        }
        h.require(
            created.is_ok_and(|r| r.status == 200 && is_true(&r.body, "created")),
            "the set-up create must build the session",
        );
        h.require(
            prepared.is_ok_and(|r| r.status == 200) && warm.as_ref().is_ok_and(|r| r.status == 200),
            "prepare and the warm-up aggregate must succeed",
        );
        let response_bytes = warm.map_or(0, |r| json::render(&r.body).len());

        let plan = Plan {
            addr: server.addr(),
            session,
            side,
            spec_body: spec_body.clone(),
            aggregate_body: aggregate_body.clone(),
            expected_sums: expected_sums.clone(),
            cfg: h.cfg.clone(),
            epoch: h.tr.epoch(),
        };
        // Each worker serves one keep-alive connection at a time: the
        // set-up connection must go before the clients take the workers.
        drop(http);
        let started = Instant::now();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let plan = &plan;
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| scope.spawn(move || client_loop(plan, c)))
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a client thread panicked"))
                .collect()
        });
        let wall = started.elapsed();
        let (fewest, most) = (
            logs.iter().map(|l| l.attempted).min().unwrap_or(0),
            logs.iter().map(|l| l.attempted).max().unwrap_or(0),
        );
        h.require(
            2 * fewest >= most,
            "the clients must be served side by side",
        );
        h.absorb_clients(logs, wall);

        let metrics = Client::new(server.addr()).get("/metrics");
        let stat = |section: &str, name: &str| {
            metrics
                .as_ref()
                .ok()
                .and_then(|r| json::lookup(&r.body, section))
                .and_then(|s| u64_field(s, name))
        };
        let (hits, misses) = (stat("registry", "hits"), stat("registry", "misses"));
        let panics = stat("server", "worker_panics");
        let client_errors = stat("server", "client_errors");
        h.require(
            misses == Some(1),
            "every re-POST of the live spec must hit the warm session",
        );
        h.require(panics == Some(0), "no handler may panic");
        h.require(
            client_errors == Some(0),
            "no request of the schedule may be a client error",
        );
        let hit_rate = hits.unwrap_or(0) as f64 / (hits.unwrap_or(0) + misses.unwrap_or(1)) as f64;
        h.require(
            h.cfg.smoke || hit_rate >= 0.9,
            "warm-session hit rate must be at least 0.9",
        );

        if h.cfg.trace {
            probes(h, &plan, &aggregate_value, &values);
            h.set_span_ms("server.start_ms", "start");
            h.set_span_ms("server.create_miss_ms", "create_miss");
            for kind in [
                Kind::Aggregate,
                Kind::Quality,
                Kind::CreateHit,
                Kind::Reassign,
            ] {
                h.set_span_ms(&format!("server.{}_p50_ms", kind.name()), kind.name());
            }
            // The p99 when the run is long enough to put ten samples
            // beyond it, a lower tail otherwise.
            let tail = supported_tail(h.op_ms().count()).unwrap_or(0.90);
            h.set("server.mixed_p99_ms", h.op_ms().percentile(tail));
            let contended = h.span_median_ms(Kind::Aggregate.name());
            let solo = h.span_median_ms("solo_aggregate");
            let inproc = h.span_median_ms("inproc_aggregate");
            h.set("server.health_p50_us", h.span_median_ms("health") * 1e3);
            h.set("server.solo_aggregate_p50_ms", solo);
            h.set("server.contention_ratio", contended / solo.max(1e-9));
            h.set("server.inproc_aggregate_p50_ms", inproc);
            h.set("server.transport_overhead_ms", solo - inproc);
            h.set(
                "server.json_parse_values_us",
                h.span_median_ms("json_parse_values") * 1e3,
            );
            h.set(
                "server.json_render_values_us",
                h.span_median_ms("json_render_values") * 1e3,
            );
            h.set("server.request_bytes", aggregate_body.len() as f64);
            h.set("server.response_bytes", response_bytes as f64);
            h.set("server.hit_rate", hit_rate);
            h.set("server.worker_panics", panics.unwrap_or(0) as f64);
            h.set("server.client_errors", client_errors.unwrap_or(0) as f64);
        }
        server.shutdown();
        return;
    }
}

/// Single-caller phases that take the request path apart: the socket and
/// HTTP floor, one uncontended aggregate, the same aggregate without the
/// daemon, and the JSON codec on the aggregate body.
fn probes(h: &mut Harness, plan: &Plan, aggregate_value: &Value, values: &[u64]) {
    h.begin_probes();
    let reps = if h.cfg.smoke { 10 } else { 60 };
    let mut http = Client::new(plan.addr);
    let mut ok = true;
    for _ in 0..5 * reps {
        let s = h.tr.begin(SERVER, "health");
        let response = http.get("/health");
        h.tr.end(s, Cost::default());
        ok &= response.is_ok_and(|r| r.status == 200);
    }
    h.require(ok, "health probes must succeed");

    // One uncontended aggregate over HTTP, and the same aggregate on an
    // identical in-process session; taking turns keeps host drift out of
    // their difference.
    let g = gen::grid(plan.side, plan.side);
    let s = h.tr.begin(CORE, "session_build");
    let mut session = Session::on(&g)
        .partition(gen::rows_of_grid(plan.side, plan.side))
        .build()
        .expect("grid rows are connected parts");
    h.tr.end(s, Cost::default());
    session.prepare();
    let mut ok = session.try_aggregate(values, AggOp::Sum).is_ok();
    let path = format!("/sessions/{}/aggregate", plan.session);
    for _ in 0..reps {
        let s = h.tr.begin(SERVER, "solo_aggregate");
        let response = http.post_raw(&path, plan.aggregate_body.as_bytes());
        h.tr.end(s, response_cost(&response));
        ok &= response.is_ok_and(|r| aggregate_response_ok(&r.body, &plan.expected_sums));
        let s = h.tr.begin(PARTWISE, "inproc_aggregate");
        let report = session.try_aggregate(values, AggOp::Sum);
        h.tr.end(s, report.as_ref().map_or_else(|_| Cost::default(), cost_of));
        ok &= report.is_ok_and(|r| aggregate_ok(&r, session.partition(), values));
    }
    h.require(
        ok,
        "solo and in-process aggregates must match the reference",
    );

    let mut ok = true;
    for _ in 0..3 * reps {
        let s = h.tr.begin(SERVER, "json_parse_values");
        let parsed = json::parse(plan.aggregate_body.as_bytes());
        h.tr.end(s, Cost::default());
        let s = h.tr.begin(SERVER, "json_render_values");
        let rendered = json::render(aggregate_value);
        h.tr.end(s, Cost::default());
        ok &= parsed.is_ok_and(|v| v == *aggregate_value) && rendered == plan.aggregate_body;
    }
    h.require(ok, "the JSON codec must round-trip the aggregate body");
}
