//! What the readers share: their error and the typed field lookup. Each
//! reader sits next to its writer and parses with the vendored
//! `serde_json`; the writers stay hand-rolled.

use serde::{Deserialize, Value};
use std::fmt;

/// A record that does not read back: malformed JSON, or a field that
/// is missing or has the wrong type. The message names what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError(pub String);

impl ReadError {
    /// The same error, prefixed with where it was found.
    #[must_use]
    pub(crate) fn context(self, at: &str) -> Self {
        ReadError(format!("{at}: {}", self.0))
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ReadError {}

/// Parses one JSON document.
pub(crate) fn parse(text: &str) -> Result<Value, ReadError> {
    serde_json::from_str(text).map_err(|e| ReadError(e.to_string()))
}

/// The field `key` of the object `v`, if present.
pub(crate) fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// The field `key` of the object `v`, read as a `T`.
pub(crate) fn at<T: Deserialize>(v: &Value, key: &str) -> Result<T, ReadError> {
    let value = field(v, key).ok_or_else(|| ReadError(format!("lacks \"{key}\"")))?;
    T::from_value(value).map_err(|e| ReadError(format!("\"{key}\": {e}")))
}

/// The field `key` of the object `v`, which must be an object itself.
pub(crate) fn object_at<'a>(v: &'a Value, key: &str) -> Result<&'a [(String, Value)], ReadError> {
    field(v, key)
        .and_then(Value::as_object)
        .ok_or_else(|| ReadError(format!("lacks an object \"{key}\"")))
}
