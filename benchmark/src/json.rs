//! The few reads the harness makes of `serde::Value` trees (bench
//! records, `/statz`, run archives, `BENCHMARK.json`).

use serde::Value;
use std::path::Path;

/// A JSON number as `f64`.
pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Member `key` of a JSON object.
pub fn child<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Number member `key` of a JSON object.
pub fn number(value: &Value, key: &str) -> Option<f64> {
    as_f64(child(value, key)?)
}

/// Read and parse the JSON file at `path`.
pub fn read(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e:?}", path.display()))
}
