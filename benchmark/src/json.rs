//! Two shorthands for building `serde_json::Value`s by hand (the
//! vendored shim has no `json!`).

use serde_json::Value;

/// An object with the given fields, in order.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// A string value.
pub fn text(s: &str) -> Value {
    Value::String(s.into())
}
