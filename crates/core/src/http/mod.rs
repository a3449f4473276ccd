//! `core::http` — the dependency-free network front-end.
//!
//! A hand-rolled HTTP/1.1 server over [`std::net::TcpListener`] and a
//! fixed worker pool (no async runtime — the box has no crates.io, and
//! the compat-shim rule of DESIGN.md §9 applies to the network layer
//! too), putting [`crate::service::QueryExpander`] on a socket:
//!
//! * `POST /expand` — a JSON [`crate::service::ExpansionRequest`] in,
//!   a JSON [`crate::service::ExpansionResponse`] out, **byte-identical**
//!   to the in-process facade's serialization (the `http-smoke` CI job
//!   `cmp`s the two).
//! * `GET /healthz` — liveness (`ok`).
//! * `GET /statz` — the live serving counters as a
//!   [`server::StatzSnapshot`], the server's one account of what it
//!   served (`qgx serve` prints the final one as it drains).
//!
//! Honest overload semantics, per the serving model the paper's 5M-
//! article deployment target implies (DESIGN.md §12):
//!
//! * Every request runs under a [`crate::service::Deadline`] that
//!   starts at **accept** — queue wait counts, so a request that aged
//!   out waiting for a worker is refused with 408 (typed
//!   [`crate::service::ServiceError::Timeout`]) instead of served
//!   late.
//! * The connection queue is bounded; a full queue sheds new
//!   connections at the edge with 503 + `Retry-After` (typed
//!   [`crate::service::ServiceError::Overloaded`]).
//! * Protocol limits ([`parser::HttpLimits`]) are enforced while bytes
//!   arrive — oversized heads and bodies and slowloris-style partial
//!   writes get typed 4xx answers within one deadline budget; no
//!   worker hangs, no panics on hostile input.
//!
//! `client` is the matching minimal blocking client (`qgx client`
//! and the conformance tests drive the server with it).

mod client;
pub mod parser;
mod server;

pub use client::{get, post_json, request, HttpResponse};
pub use parser::HttpLimits;
pub use server::{HttpServer, ServerConfig, StatzSnapshot};

use crate::service::ServiceError;

/// The HTTP status each [`ServiceError`] is answered with:
/// caller errors are 4xx, server-side artifact failures 5xx, and the
/// two overload shapes get their dedicated retryable statuses.
pub fn status_for(error: &ServiceError) -> u16 {
    match error {
        ServiceError::EmptyQuery => 400,
        ServiceError::NoLinkedEntities { .. } => 404,
        ServiceError::NoEngine => 501,
        ServiceError::Timeout { .. } => 408,
        ServiceError::Overloaded { .. } => 503,
        ServiceError::ArtifactMissing { .. }
        | ServiceError::ArtifactLoad { .. }
        | ServiceError::ArtifactShard { .. }
        | ServiceError::ArtifactFingerprint { .. }
        | ServiceError::ArtifactStale { .. } => 500,
    }
}

/// JSON-escape a string the way the serde_json shim does, so every
/// error body is built from the same serializer as every success body.
fn json_string(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serializes")
}

/// The error body for a failed `/expand`:
/// `{"query":…,"code":…,"error":…}` — the same line `qgx replay`
/// prints for an in-process failure, so error responses stay
/// `cmp`-identical across the socket boundary too.
pub fn expand_error_body(query: &str, error: &ServiceError) -> String {
    format!(
        "{{\"query\":{},\"code\":{},\"error\":{}}}",
        json_string(query),
        json_string(error.code()),
        json_string(&error.to_string()),
    )
}

/// The error body for protocol-level rejections (no query to echo):
/// `{"code":…,"error":…}` with a [`ParseError::code`]-style code.
pub(crate) fn protocol_error_body(code: &str, message: &str) -> String {
    format!(
        "{{\"code\":{},\"error\":{}}}",
        json_string(code),
        json_string(message),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_service_error_code_has_a_status() {
        use crate::service::Deadline;
        use std::time::Duration;
        // One instance per variant, same anchors as the service tests.
        let samples = [
            (ServiceError::EmptyQuery, 400),
            (
                ServiceError::NoLinkedEntities {
                    query: "x".to_string(),
                },
                404,
            ),
            (ServiceError::NoEngine, 501),
            (ServiceError::ArtifactMissing { path: "/a".into() }, 500),
            (
                Deadline::starting_at(
                    std::time::Instant::now() - Duration::from_millis(5),
                    Duration::from_millis(1),
                )
                .timeout_error(),
                408,
            ),
            (ServiceError::Overloaded { queue_depth: 3 }, 503),
        ];
        for (error, status) in &samples {
            assert_eq!(status_for(error), *status, "{error:?}");
            // Retryable statuses and Retry-After agree.
            assert_eq!(
                error.retry_after_seconds().is_some(),
                matches!(status, 408 | 503),
                "{error:?}"
            );
        }
    }

    #[test]
    fn error_bodies_are_valid_json_with_escaping() {
        let error = ServiceError::NoLinkedEntities {
            query: "he said \"hi\"\n".to_string(),
        };
        let body = expand_error_body("he said \"hi\"\n", &error);
        let value: serde::Value = serde_json::from_str(&body).expect("body parses");
        let entries = value.as_object().expect("object");
        let get = |name: &str| {
            entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            get("query"),
            Some(serde::Value::Str("he said \"hi\"\n".into()))
        );
        assert_eq!(
            get("code"),
            Some(serde::Value::Str("no_linked_entities".into()))
        );
        assert!(matches!(get("error"), Some(serde::Value::Str(_))));
        let proto = protocol_error_body("bad_request", "body is not UTF-8");
        let value: serde::Value = serde_json::from_str(&proto).expect("body parses");
        assert!(value.as_object().is_some());
    }
}
