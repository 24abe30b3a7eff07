//! Route dispatch and op handlers.
//!
//! # Endpoints
//!
//! | method | path | body |
//! |--------|------|------|
//! | GET  | `/health`   | — |
//! | GET  | `/metrics`  | — |
//! | GET  | `/defaults` | — |
//! | GET  | `/sessions` | — |
//! | GET  | `/sessions/{id}` | — |
//! | POST | `/sessions` | session spec (see [`crate::state::SessionSpec`]) |
//! | POST | `/sessions/{id}/{op}` | op arguments |
//! | POST | `/shutdown` | — |
//!
//! Ops: `prepare`, `quality`, `cache_stats`, `aggregate`, `gossip`,
//! `unicast`, `mst`, `components`, `mincut`, plus the mutations
//! `reassign_parts` and `set_partition`. Every handler returns
//! `Result<Value, ApiError>`; the worker renders either side as JSON.

use crate::error::ApiError;
use crate::json;
use crate::state::{edge_weights, node_lists, AppState, SessionEntry, SessionSpec};
use lcs_algos::SessionAlgoOps;
use lcs_congest::protocols::AggOp;
use lcs_core::session::{OpReport, SessionConfig};
use lcs_graph::{NodeId, PartId};
use lcs_partwise::{IdempotentOp, SessionPartwiseOps};
use serde::{Serialize, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Dispatches one request, returning `(status, json_body)`.
pub fn handle(state: &AppState, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    match route(state, method, path, body) {
        Ok(v) => (200, json::render(&v)),
        Err(e) => (e.status, json::render(&e.to_body())),
    }
}

fn route(state: &AppState, method: &str, path: &str, body: &[u8]) -> Result<Value, ApiError> {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        ("GET", ["health"]) => Ok(Value::object([("status", Value::Str("ok".to_string()))])),
        ("GET", ["metrics"]) => Ok(metrics(state)),
        ("GET", ["defaults"]) => Ok(Value::object([(
            "config",
            SessionConfig::default().to_value(),
        )])),
        ("GET", ["sessions"]) => Ok(list_sessions(state)),
        ("GET", ["sessions", id]) => session_info(state, id),
        ("POST", ["sessions"]) => create_session(state, body),
        ("POST", ["sessions", id, op]) => {
            let entry = state
                .registry
                .get(id)
                .ok_or_else(|| ApiError::not_found(format!("no session `{id}`")))?;
            let args = json::parse(body)?;
            run_op(&entry, op, &args)
        }
        ("POST", ["shutdown"]) => {
            state.shutdown.store(true, Ordering::SeqCst);
            Ok(Value::object([(
                "status",
                Value::Str("shutting_down".to_string()),
            )]))
        }
        // Known paths reached with the wrong method get a 405.
        (_, ["health" | "metrics" | "defaults" | "shutdown"]) | (_, ["sessions", ..]) => {
            Err(ApiError::method_not_allowed(method, path))
        }
        _ => Err(ApiError::not_found(format!("no endpoint {path}"))),
    }
}

fn metrics(state: &AppState) -> Value {
    let sessions: Vec<Value> = state
        .registry
        .snapshot()
        .iter()
        .map(|e| {
            let [busy, cache_stats] = observed_stats(e);
            Value::object([("id", Value::Str(e.id.clone())), busy, cache_stats])
        })
        .collect();
    Value::object([
        ("server", state.metrics.to_value()),
        ("registry", state.registry.stats().to_value()),
        ("sessions", Value::Arr(sessions)),
    ])
}

fn list_sessions(state: &AppState) -> Value {
    let sessions: Vec<Value> = state
        .registry
        .snapshot()
        .iter()
        .map(|e| Value::object([("id", Value::Str(e.id.clone())), ("spec", e.spec.clone())]))
        .collect();
    Value::object([("sessions", Value::Arr(sessions))])
}

fn session_info(state: &AppState, id: &str) -> Result<Value, ApiError> {
    let entry = state
        .registry
        .get(id)
        .ok_or_else(|| ApiError::not_found(format!("no session `{id}`")))?;
    let [busy, cache_stats] = observed_stats(&entry);
    Ok(Value::object([
        ("id", Value::Str(entry.id.clone())),
        ("spec", entry.spec.clone()),
        ("num_nodes", Value::U64(entry.graph.num_nodes() as u64)),
        ("num_edges", Value::U64(entry.graph.num_edges() as u64)),
        busy,
        cache_stats,
    ]))
}

/// The `busy` / `cache_stats` pair of the observability endpoints, read
/// without waiting for the session: while an op holds it the session is
/// reported `"busy": true` with `null` stats instead of stalling the
/// scrape behind the op.
fn observed_stats(entry: &SessionEntry) -> [(&'static str, Value); 2] {
    let stats = entry.try_lock().map(|s| s.cache_stats().to_value());
    [
        ("busy", Value::Bool(stats.is_none())),
        ("cache_stats", stats.unwrap_or(Value::Null)),
    ]
}

fn create_session(state: &AppState, body: &[u8]) -> Result<Value, ApiError> {
    let v = json::parse(body)?;
    let spec = SessionSpec::from_value(&v)?;
    let (entry, created) = state.registry.get_or_create(&spec)?;
    Ok(Value::object([
        ("id", Value::Str(entry.id.clone())),
        ("created", Value::Bool(created)),
    ]))
}

/// Wraps an op result with the report's accounting fields.
fn report_value<T>(report: &OpReport<T>, result: Value) -> Value {
    let quality = match &report.quality {
        Some(q) => quality_value(q),
        None => Value::Null,
    };
    Value::object([
        ("result", result),
        ("rounds", Value::U64(report.rounds)),
        ("messages", Value::U64(report.messages)),
        ("bits", Value::U64(report.bits)),
        ("truncated", Value::Bool(report.truncated)),
        ("threads", Value::U64(report.threads as u64)),
        ("bandwidth_bits", Value::U64(report.bandwidth_bits as u64)),
        ("quality", quality),
    ])
}

fn quality_value(q: &lcs_core::QualityReport) -> Value {
    Value::object([
        ("quality", Value::U64(u64::from(q.quality()))),
        ("max_congestion", Value::U64(u64::from(q.max_congestion))),
        ("max_blocks", Value::U64(u64::from(q.max_blocks))),
        (
            "max_dilation_lower",
            Value::U64(u64::from(q.max_dilation_lower)),
        ),
        (
            "max_dilation_upper",
            Value::U64(u64::from(q.max_dilation_upper)),
        ),
        ("all_connected", Value::Bool(q.all_connected())),
        ("tree_restricted", Value::Bool(q.tree_restricted)),
        ("parts", Value::U64(q.per_part.len() as u64)),
    ])
}

fn opt_u64_array(values: &[Option<u64>]) -> Value {
    Value::Arr(
        values
            .iter()
            .map(|v| match v {
                Some(x) => Value::U64(*x),
                None => Value::Null,
            })
            .collect(),
    )
}

fn agg_op(args: &Value) -> Result<AggOp, ApiError> {
    let name: Option<String> = json::optional(args, "op")?;
    match name.as_deref().unwrap_or("sum") {
        "sum" => Ok(AggOp::Sum),
        "min" => Ok(AggOp::Min),
        "max" => Ok(AggOp::Max),
        other => Err(ApiError::bad_args(format!(
            "unknown aggregate op `{other}` — one of sum, min, max"
        ))),
    }
}

fn gossip_op(args: &Value) -> Result<IdempotentOp, ApiError> {
    let name: Option<String> = json::optional(args, "op")?;
    match name.as_deref().unwrap_or("min") {
        "min" => Ok(IdempotentOp::Min),
        "max" => Ok(IdempotentOp::Max),
        other => Err(ApiError::bad_args(format!(
            "unknown gossip op `{other}` — one of min, max (idempotent only)"
        ))),
    }
}

fn run_op(entry: &Arc<SessionEntry>, op: &str, args: &Value) -> Result<Value, ApiError> {
    let mut session = entry.lock();
    let s = &mut *session;
    match op {
        "prepare" => {
            s.try_full_artifact()?;
            Ok(Value::object([
                ("prepared", Value::Bool(true)),
                ("cache_stats", s.cache_stats().to_value()),
            ]))
        }
        "quality" => {
            let q = s.try_quality()?;
            let mut detail = quality_value(q);
            if let Value::Obj(fields) = &mut detail {
                fields.push(("report".to_string(), q.to_value()));
            }
            Ok(detail)
        }
        "cache_stats" => Ok(s.cache_stats().to_value()),
        "aggregate" => {
            let values: Vec<u64> = json::require(args, "values")?;
            let op = agg_op(args)?;
            let leaders: Option<Vec<u32>> = json::optional(args, "leaders")?;
            let report = match leaders {
                Some(ls) => {
                    let ls: Vec<NodeId> = ls.into_iter().map(NodeId).collect();
                    s.try_aggregate_with_leaders(&values, op, &ls)?
                }
                None => s.try_aggregate(&values, op)?,
            };
            let result = Value::object([
                ("results", opt_u64_array(&report.result.results)),
                (
                    "all_members_informed",
                    Value::Bool(report.result.all_members_informed),
                ),
                (
                    "rooted_parts",
                    Value::U64(report.result.rooted_parts as u64),
                ),
            ]);
            Ok(report_value(&report, result))
        }
        "gossip" => {
            let values: Vec<u64> = json::require(args, "values")?;
            let op = gossip_op(args)?;
            let report = s.try_gossip(&values, op)?;
            let result = Value::object([
                ("results", opt_u64_array(&report.result.results)),
                ("converged", Value::Bool(report.result.converged)),
                (
                    "rooted_parts",
                    Value::U64(report.result.rooted_parts as u64),
                ),
            ]);
            Ok(report_value(&report, result))
        }
        "unicast" => {
            let demands: Vec<(u32, u32)> = json::require(args, "demands")?;
            let demands: Vec<(NodeId, NodeId)> = demands
                .into_iter()
                .map(|(a, b)| (NodeId(a), NodeId(b)))
                .collect();
            let report = s.try_unicast(&demands)?;
            let result = Value::object([
                ("delivered", Value::U64(report.result.delivered as u64)),
                (
                    "congestion",
                    Value::U64(u64::from(report.result.congestion)),
                ),
                ("dilation", Value::U64(u64::from(report.result.dilation))),
            ]);
            Ok(report_value(&report, result))
        }
        "mst" => {
            let weights = edge_weights(&entry.graph, json::require(args, "weights")?)?;
            let report = s.try_mst(&weights)?;
            let result = Value::object([
                (
                    "edges",
                    Value::Arr(
                        report
                            .result
                            .edges
                            .iter()
                            .map(|e| Value::U64(u64::from(e.0)))
                            .collect(),
                    ),
                ),
                ("total_weight", Value::U64(report.result.total_weight)),
                ("phases", Value::U64(report.result.phases as u64)),
            ]);
            Ok(report_value(&report, result))
        }
        "components" => {
            let report = s.try_components()?;
            let result = Value::object([
                ("count", Value::U64(report.result.count as u64)),
                (
                    "label",
                    Value::Arr(
                        report
                            .result
                            .label
                            .iter()
                            .map(|&l| Value::U64(u64::from(l)))
                            .collect(),
                    ),
                ),
            ]);
            Ok(report_value(&report, result))
        }
        "mincut" => {
            let report = s.try_mincut()?;
            let result = Value::object([
                ("estimate", Value::U64(report.result.estimate)),
                ("trees", Value::U64(report.result.trees as u64)),
                ("eval_rounds", Value::U64(report.result.eval_rounds)),
            ]);
            Ok(report_value(&report, result))
        }
        "reassign_parts" => {
            let moves: Vec<(u32, u32)> = json::require(args, "moves")?;
            let moves: Vec<(NodeId, PartId)> = moves
                .into_iter()
                .map(|(v, p)| (NodeId(v), PartId(p)))
                .collect();
            // Every reassign failure is an invalid *mutation* — the 409
            // class — including moves to a nonexistent part.
            let touched = s
                .try_reassign_parts(&moves)
                .map_err(|e| ApiError::conflict(e.to_string()))?;
            Ok(Value::object([
                (
                    "touched_parts",
                    Value::Arr(touched.iter().map(|p| Value::U64(u64::from(p.0))).collect()),
                ),
                ("cache_stats", s.cache_stats().to_value()),
            ]))
        }
        "set_partition" => {
            let parts: Vec<Vec<u32>> = json::require(args, "partition")?;
            s.set_partition(node_lists(&parts))?;
            Ok(Value::object([(
                "parts",
                Value::U64(s.partition().num_parts() as u64),
            )]))
        }
        other => Err(ApiError::not_found(format!(
            "no op `{other}` — one of prepare, quality, cache_stats, aggregate, gossip, \
             unicast, mst, components, mincut, reassign_parts, set_partition"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServerConfig;
    use std::sync::mpsc;

    /// The first session's `(busy, cache_stats)` as `GET /metrics` and
    /// `GET /sessions/s0` report them.
    fn observed(state: &AppState) -> [(Value, Value); 2] {
        let fields = |v: &Value| {
            // `lookup` reads a `null` field as absent.
            let get = |name| json::lookup(v, name).cloned().unwrap_or(Value::Null);
            (get("busy"), get("cache_stats"))
        };
        let (status, body) = handle(state, "GET", "/metrics", b"");
        assert_eq!(status, 200);
        let metrics = json::parse(body.as_bytes()).unwrap();
        let Some(Value::Arr(sessions)) = json::lookup(&metrics, "sessions") else {
            panic!("metrics lists the sessions");
        };
        let (status, body) = handle(state, "GET", "/sessions/s0", b"");
        assert_eq!(status, 200);
        [
            fields(&sessions[0]),
            fields(&json::parse(body.as_bytes()).unwrap()),
        ]
    }

    #[test]
    fn observability_reads_do_not_wait_for_a_running_op() {
        let state = AppState::new(ServerConfig::default());
        let spec = br#"{"graph": {"kind": "grid", "rows": 4, "cols": 4}}"#;
        assert_eq!(handle(&state, "POST", "/sessions", spec).0, 200);
        let entry = state.registry.get("s0").expect("created");

        // Stand in for a long op: another thread holds the session until
        // told to let go (or until a failed assertion drops the sender).
        let (locked_tx, locked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (state_ref, entry_ref) = (&state, &entry);
        std::thread::scope(move |scope| {
            scope.spawn(move || {
                let _op = entry_ref.lock();
                locked_tx.send(()).unwrap();
                let _ = release_rx.recv();
            });
            locked_rx.recv().unwrap();
            for (busy, stats) in observed(state_ref) {
                assert_eq!((busy, stats), (Value::Bool(true), Value::Null));
            }
            release_tx.send(()).unwrap();
        });
        for (busy, stats) in observed(&state) {
            assert_eq!(busy, Value::Bool(false));
            assert!(matches!(stats, Value::Obj(_)), "idle sessions report stats");
        }
    }
}
