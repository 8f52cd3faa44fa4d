//! The self-describing data model serialization flows through.

use std::fmt;

/// A dynamically-typed value tree (the usual JSON/TOML lattice).
///
/// Tables preserve insertion order so serialized documents are
/// deterministic and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The absent value (`Option::None`); skipped by writers where the
    /// format has no null (TOML).
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer (integers that fit `i64` live here).
    Int(i64),
    /// An unsigned integer above `i64::MAX` (e.g. a `u64` seed); writers
    /// print it like any integer.
    UInt(u64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered string-keyed map.
    Table(Vec<(String, Value)>),
}

impl Value {
    /// A short name of the value's kind, for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }

    /// Looks up a key in a table value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Deserializes a required table field, contextualizing errors with the
    /// field name.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the field is missing or has the wrong shape.
    pub fn field<T: crate::Deserialize>(&self, key: &str) -> Result<T, Error> {
        match self.get(key) {
            Some(v) => T::deserialize(v).map_err(|e| e.at(key)),
            None => Err(Error::new(format!("missing field `{key}`"))),
        }
    }

    /// The raw [`Value`] of a required table field (the untyped
    /// counterpart of [`field`](Value::field), for deserializers that
    /// need to inspect the value before committing to a type).
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the field is missing.
    pub fn field_value(&self, key: &str) -> Result<&Value, Error> {
        self.get(key)
            .ok_or_else(|| Error::new(format!("missing field `{key}`")))
    }

    /// The value as a bool.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the value is not a bool.
    pub fn as_bool(&self) -> Result<bool, Error> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other)),
        }
    }

    /// The value as a signed integer.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the value is not an integer or does not fit
    /// `i64`.
    pub fn as_int(&self) -> Result<i64, Error> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::UInt(u) => i64::try_from(*u)
                .map_err(|_| Error::new(format!("integer {u} out of range for i64"))),
            other => Err(Error::expected("integer", other)),
        }
    }

    /// The value as an unsigned integer.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the value is not an integer or is negative.
    pub fn as_u64(&self) -> Result<u64, Error> {
        match self {
            Value::UInt(u) => Ok(*u),
            Value::Int(i) => {
                u64::try_from(*i).map_err(|_| Error::new(format!("integer {i} is negative")))
            }
            other => Err(Error::expected("integer", other)),
        }
    }

    /// The value as a float (integers coerce, as in TOML/JSON practice).
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the value is neither a float nor an integer.
    #[allow(clippy::cast_precision_loss)]
    pub fn as_float(&self) -> Result<f64, Error> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            Value::UInt(u) => Ok(*u as f64),
            other => Err(Error::expected("float", other)),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the value is not a string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::expected("string", other)),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the value is not an array.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(Error::expected("array", other)),
        }
    }

    /// The value as table entries.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the value is not a table.
    pub fn as_table(&self) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Table(entries) => Ok(entries),
            other => Err(Error::expected("table", other)),
        }
    }

    /// Asserts the value is a table whose keys all come from `allowed` —
    /// the strict complement to the lenient macro-generated
    /// deserializers. Hand-written config deserializers that *default*
    /// absent fields use this so a misspelled key fails loudly instead of
    /// silently running with defaults.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] naming the first unknown key, or a type mismatch
    /// if the value is not a table.
    pub fn expect_keys(&self, allowed: &[&str]) -> Result<(), Error> {
        for (key, _) in self.as_table()? {
            if !allowed.contains(&key.as_str()) {
                return Err(Error::new(format!(
                    "unknown key `{key}` (expected one of: {})",
                    allowed.join(", ")
                )));
            }
        }
        Ok(())
    }
}

impl crate::Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, indent: usize, out: &mut String) {
        crate::json::write_value(self, indent, out);
    }
}

/// A parse or shape-mismatch error, carrying the path from the document
/// root to the offending value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    path: Vec<String>,
    message: String,
}

impl Error {
    /// A fresh error with no path context yet.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Error {
            path: Vec::new(),
            message: message.into(),
        }
    }

    /// A type-mismatch error.
    #[must_use]
    pub fn expected(wanted: &str, got: &Value) -> Self {
        Error::new(format!("expected {wanted}, found {}", got.kind()))
    }

    /// Returns the error with `segment` prepended to its path.
    #[must_use]
    pub fn at(mut self, segment: &str) -> Self {
        self.path.insert(0, segment.to_string());
        self
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "at `{}`: {}", self.path.join("."), self.message)
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_lookup_and_paths() {
        let v = Value::Table(vec![(
            "outer".to_string(),
            Value::Table(vec![("n".to_string(), Value::Str("x".into()))]),
        )]);
        let err = v
            .get("outer")
            .unwrap()
            .field::<u64>("n")
            .unwrap_err()
            .at("outer");
        assert_eq!(
            err.to_string(),
            "at `outer.n`: expected integer, found string"
        );
    }

    #[test]
    fn int_coerces_to_float_only() {
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert!(Value::Float(3.0).as_int().is_err());
    }
}
