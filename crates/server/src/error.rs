//! Structured API errors and their HTTP status mapping.
//!
//! Every handler failure flows through [`ApiError`], which renders as a
//! JSON object `{"error": <code>, "message": <text>, "status": <n>}`. The
//! status mapping is part of the API contract:
//!
//! | status | code             | meaning                                   |
//! |--------|------------------|-------------------------------------------|
//! | 400    | `malformed_json` | body is not valid JSON (or not UTF-8)     |
//! | 404    | `not_found`      | unknown session id or endpoint            |
//! | 404    | `graph_file_not_found` | a graph spec names a file that does not exist |
//! | 405    | `method_not_allowed` | known path, wrong HTTP method         |
//! | 409    | `invalid_mutation` | a mutation (`reassign_parts`, `set_partition`) failed validation; session unchanged — the only 409: no create is refused for what the server already holds |
//! | 413    | `body_too_large` | request body exceeds the configured cap   |
//! | 422    | `bad_args`       | well-formed body with invalid op arguments |
//! | 422    | `partition_*`    | a session-spec partition failed validation — the code is [`PartitionError::code`] (`partition_disconnected`, `partition_uncovered`, `partition_overlap`, `partition_empty_part`, `partition_out_of_range`, `partition_off_tree`) |
//! | 422    | `graph_*`        | a session-spec graph source failed to resolve — the code is [`GraphSourceError::code`] (`graph_invalid_spec`, `graph_json_malformed`, `graph_invalid_edge`, `graph_too_large`, `graph_io`, and the flat-binary loader codes `graph_bad_magic`, `graph_unsupported_version`, `graph_unknown_flags`, `graph_truncated`, `graph_trailing_bytes`, `graph_checksum_mismatch`, `graph_inconsistent`) |
//! | 422    | `truncated`      | a simulated construction phase (`bfs`, `detection`) hit the backend's `max_rounds` before it finished; nothing was cached |
//! | 500    | `internal_panic` | a handler panicked (counted, worker survives) |

use lcs_core::session::SessionError;
use lcs_core::{GraphSourceError, PartitionError};
use serde::Value;
use std::fmt;

/// A structured, HTTP-mappable handler error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable error code.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// 400 — the body is not parseable JSON.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            code: "malformed_json",
            message: message.into(),
        }
    }

    /// 404 — unknown session or endpoint.
    pub fn not_found(message: impl Into<String>) -> Self {
        ApiError {
            status: 404,
            code: "not_found",
            message: message.into(),
        }
    }

    /// 405 — the path exists but not for this method.
    pub fn method_not_allowed(method: &str, path: &str) -> Self {
        ApiError {
            status: 405,
            code: "method_not_allowed",
            message: format!("{method} is not supported on {path}"),
        }
    }

    /// 409 — a mutation failed validation; the session is unchanged.
    pub fn conflict(message: impl Into<String>) -> Self {
        ApiError {
            status: 409,
            code: "invalid_mutation",
            message: message.into(),
        }
    }

    /// 413 — the request body exceeds the configured cap.
    pub fn too_large(limit: usize) -> Self {
        ApiError {
            status: 413,
            code: "body_too_large",
            message: format!("request body exceeds the {limit}-byte limit"),
        }
    }

    /// 422 — the body parsed but the op arguments are invalid.
    pub fn bad_args(message: impl Into<String>) -> Self {
        ApiError {
            status: 422,
            code: "bad_args",
            message: message.into(),
        }
    }

    /// 422 — a session-spec partition failed validation. Unlike the
    /// collapsed [`bad_args`](Self::bad_args), the machine-readable code
    /// is the [`PartitionError::code`] variant name, so clients can tell
    /// "part not connected" from "node unassigned" without parsing the
    /// message.
    pub fn unprocessable_partition(e: &PartitionError) -> Self {
        ApiError {
            status: 422,
            code: e.code(),
            message: format!("invalid partition: {e}"),
        }
    }

    /// 422 (or 404 for a missing file) — a session-spec graph source
    /// failed to resolve. The machine-readable code is
    /// [`GraphSourceError::code`], so clients can tell a truncated
    /// `.lcsg` file from a checksum mismatch from malformed edge-list
    /// JSON without parsing the message.
    pub fn unprocessable_graph(e: &GraphSourceError) -> Self {
        let code = e.code();
        ApiError {
            status: if code == "graph_file_not_found" {
                404
            } else {
                422
            },
            code,
            message: format!("invalid graph: {e}"),
        }
    }

    /// 500 — a handler panicked; the worker caught it and kept serving.
    pub fn internal_panic() -> Self {
        ApiError {
            status: 500,
            code: "internal_panic",
            message: "handler panicked; the worker caught it and keeps serving".to_string(),
        }
    }

    /// The JSON body of this error.
    pub fn to_body(&self) -> Value {
        Value::object([
            ("error", Value::Str(self.code.to_string())),
            ("message", Value::Str(self.message.clone())),
            ("status", Value::U64(u64::from(self.status))),
        ])
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.status, self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<SessionError> for ApiError {
    fn from(e: SessionError) -> Self {
        match e {
            // Mutations that failed validation leave the session unchanged
            // — the 409 class the mutation API promises.
            SessionError::Partition(_) => ApiError::conflict(e.to_string()),
            SessionError::Truncated(_) => ApiError {
                status: 422,
                code: "truncated",
                message: e.to_string(),
            },
            _ => ApiError::bad_args(e.to_string()),
        }
    }
}

impl From<PartitionError> for ApiError {
    fn from(e: PartitionError) -> Self {
        ApiError::conflict(e.to_string())
    }
}
