//! # tensordash-serde
//!
//! The workspace's dependency-free serialization layer. The build
//! environment has no network access, so instead of `serde` + `serde_json`
//! + `toml` this crate provides:
//!
//! * [`Value`] — a small self-describing data model (the usual
//!   bool/int/float/string/array/table lattice);
//! * [`Serialize`]/[`Deserialize`] — the traits experiment configs and
//!   reports implement, mirroring serde's shape (`derive` is replaced by
//!   the declarative [`impl_serde_struct!`]/[`impl_serde_enum!`] macros);
//! * [`json`] and [`toml`] — writers and parsers for the two formats the
//!   `tensordash` CLI speaks: TOML in (experiment configs), JSON out
//!   (reports), and both ways for round-trip tests.
//!
//! [`json::write`] takes any [`Serialize`] value and calls its
//! [`write_json`](Serialize::write_json). The default walks the
//! [`serialize`](Serialize::serialize) tree; the macros, the primitives,
//! `Vec`, slices and `Option` override it to write their text directly,
//! so a report is written without building its tree. The byte contract:
//! a direct writer emits exactly `json::write(&x.serialize())`, through
//! the same table, array, float and string helpers.
//!
//! ```
//! use tensordash_serde::{from_toml_str, to_toml_string, Deserialize, Serialize};
//!
//! #[derive(Debug, PartialEq)]
//! struct Knobs { rows: usize, scale: f64, label: String }
//! tensordash_serde::impl_serde_struct!(Knobs { rows, scale, label });
//!
//! let knobs = Knobs { rows: 4, scale: 1.5, label: "paper".into() };
//! let text = to_toml_string(&knobs).unwrap();
//! assert_eq!(from_toml_str::<Knobs>(&text).unwrap(), knobs);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod toml;
pub mod value;

pub use value::{Error, Value};

/// Types that can render themselves into a [`Value`] tree, and write
/// that tree's JSON text.
pub trait Serialize {
    /// Builds the value tree.
    fn serialize(&self) -> Value;

    /// Appends the pretty-printed JSON of [`serialize`](Serialize::serialize)'s
    /// tree to `out`, nested `indent` levels deep (no trailing newline;
    /// [`json::write`] adds that). The default walks the tree. Types on
    /// the report path override it to write their text directly, with
    /// no tree in between; an override must write exactly the bytes of
    /// the default.
    fn write_json(&self, indent: usize, out: &mut String) {
        json::write_value(&self.serialize(), indent, out);
    }
}

/// Types reconstructible from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds the value, reporting the offending path on mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the value tree does not match the expected
    /// shape (missing field, wrong type, unknown enum variant, ...).
    fn deserialize(value: &Value) -> Result<Self, Error>;
}

/// Serializes `value` as pretty-printed JSON.
pub fn to_json_string<T: Serialize>(value: &T) -> String {
    json::write(value)
}

/// Parses a JSON document into `T`.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_json_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    T::deserialize(&json::parse(text)?)
}

/// Serializes `value` as TOML.
///
/// # Errors
///
/// Returns [`Error`] when the serialized form is not a table at top level
/// (TOML documents are tables).
pub fn to_toml_string<T: Serialize>(value: &T) -> Result<String, Error> {
    toml::write(&value.serialize())
}

/// Parses a TOML document into `T`.
///
/// # Errors
///
/// Returns [`Error`] on malformed TOML or a shape mismatch.
pub fn from_toml_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    T::deserialize(&toml::parse(text)?)
}

macro_rules! impl_serde_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Int(i64::from(*self))
            }
            fn write_json(&self, _indent: usize, out: &mut String) {
                json::write_int(self, out);
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let raw = value.as_int()?;
                <$t>::try_from(raw)
                    .map_err(|_| Error::new(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_signed!(i8, i16, i32, i64);

macro_rules! impl_serde_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                // Values fitting i64 stay `Int` (the common case and what
                // the parsers produce); larger ones use the UInt spillover
                // so e.g. a u64 seed never panics or truncates.
                match i64::try_from(*self) {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::UInt(*self as u64),
                }
            }
            fn write_json(&self, _indent: usize, out: &mut String) {
                json::write_int(self, out);
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let raw = value.as_u64()?;
                <$t>::try_from(raw)
                    .map_err(|_| Error::new(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
    fn write_json(&self, _indent: usize, out: &mut String) {
        json::write_bool(*self, out);
    }
}

impl Deserialize for bool {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value.as_bool()
    }
}

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Float(*self)
    }
    fn write_json(&self, _indent: usize, out: &mut String) {
        json::write_float(*self, out);
    }
}

impl Deserialize for f64 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value.as_float()
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Float(f64::from(*self))
    }
    fn write_json(&self, _indent: usize, out: &mut String) {
        json::write_float(f64::from(*self), out);
    }
}

impl Deserialize for f32 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.as_float()? as f32)
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
    fn write_json(&self, _indent: usize, out: &mut String) {
        json::write_string(self, out);
    }
}

impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.as_str()?.to_string())
    }
}

impl Serialize for &str {
    fn serialize(&self) -> Value {
        Value::Str((*self).to_string())
    }
    fn write_json(&self, _indent: usize, out: &mut String) {
        json::write_string(self, out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
    fn write_json(&self, indent: usize, out: &mut String) {
        json::write_array(self, indent, out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        self.as_slice().serialize()
    }
    fn write_json(&self, indent: usize, out: &mut String) {
        json::write_array(self, indent, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_array()?
            .iter()
            .enumerate()
            .map(|(i, v)| T::deserialize(v).map_err(|e| e.at(&format!("[{i}]"))))
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Unit,
        }
    }
    fn write_json(&self, indent: usize, out: &mut String) {
        match self {
            Some(v) => v.write_json(indent, out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Unit => Ok(None),
            other => Ok(Some(T::deserialize(other)?)),
        }
    }
}

/// Implements [`Serialize`]/[`Deserialize`] for a struct with named fields,
/// mirroring what `#[derive(Serialize, Deserialize)]` would emit: the
/// struct maps to a table keyed by field name. Its
/// [`write_json`](Serialize::write_json) writes the table's text
/// directly.
///
/// Missing fields are an error; unknown keys are ignored (configs stay
/// forward-compatible). Structs needing defaulted/optional fields
/// hand-implement the traits instead.
#[macro_export]
macro_rules! impl_serde_struct {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn serialize(&self) -> $crate::Value {
                $crate::Value::Table(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::Serialize::serialize(&self.$field),
                    ),)*
                ])
            }

            fn write_json(&self, indent: usize, out: &mut ::std::string::String) {
                let mut table = $crate::json::TableWriter::new(indent, out);
                $(table.field(stringify!($field), &self.$field);)*
                table.finish();
            }
        }

        impl $crate::Deserialize for $ty {
            fn deserialize(value: &$crate::Value) -> Result<Self, $crate::Error> {
                Ok(Self {
                    $($field: value.field(stringify!($field))?,)*
                })
            }
        }
    };
}

/// Implements [`Serialize`]/[`Deserialize`] for a field-less enum as its
/// variant name string.
#[macro_export]
macro_rules! impl_serde_enum {
    ($ty:ty { $($variant:ident),+ $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn serialize(&self) -> $crate::Value {
                let name = match self {
                    $(Self::$variant => stringify!($variant),)+
                };
                $crate::Value::Str(name.to_string())
            }

            fn write_json(&self, _indent: usize, out: &mut ::std::string::String) {
                let name = match self {
                    $(Self::$variant => stringify!($variant),)+
                };
                $crate::json::write_string(name, out);
            }
        }

        impl $crate::Deserialize for $ty {
            fn deserialize(value: &$crate::Value) -> Result<Self, $crate::Error> {
                match value.as_str()? {
                    $(name if name == stringify!($variant) => Ok(Self::$variant),)+
                    other => Err($crate::Error::new(format!(
                        concat!("unknown ", stringify!($ty), " variant `{}` (expected one of: ",
                            $(stringify!($variant), " ",)+ ")"),
                        other
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Inner {
        flag: bool,
        items: Vec<u32>,
    }
    impl_serde_struct!(Inner { flag, items });

    #[derive(Debug, Clone, PartialEq)]
    enum Mode {
        Fast,
        Slow,
    }
    impl_serde_enum!(Mode { Fast, Slow });

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        name: String,
        ratio: f64,
        count: usize,
        mode: Mode,
        inner: Inner,
        layers: Vec<Inner>,
    }
    impl_serde_struct!(Outer {
        name,
        ratio,
        count,
        mode,
        inner,
        layers
    });

    fn sample() -> Outer {
        Outer {
            name: "alpha, \"beta\"".into(),
            ratio: 1.9375,
            count: 42,
            mode: Mode::Slow,
            inner: Inner {
                flag: true,
                items: vec![1, 2, 3],
            },
            layers: vec![
                Inner {
                    flag: false,
                    items: vec![],
                },
                Inner {
                    flag: true,
                    items: vec![9],
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip() {
        let out = sample();
        let text = to_json_string(&out);
        assert_eq!(from_json_str::<Outer>(&text).unwrap(), out);
    }

    #[test]
    fn toml_roundtrip() {
        let out = sample();
        let text = to_toml_string(&out).unwrap();
        assert_eq!(
            from_toml_str::<Outer>(&text).unwrap(),
            out,
            "document:\n{text}"
        );
    }

    #[test]
    fn missing_field_reports_path() {
        let err = from_json_str::<Inner>("{\"flag\": true}").unwrap_err();
        assert!(err.to_string().contains("items"), "{err}");
    }

    #[test]
    fn unknown_enum_variant_is_an_error() {
        let err = from_json_str::<Mode>("\"Warp\"").unwrap_err();
        assert!(err.to_string().contains("Warp"), "{err}");
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let v: Inner =
            from_json_str("{\"flag\": false, \"items\": [4], \"future_knob\": 1}").unwrap();
        assert_eq!(
            v,
            Inner {
                flag: false,
                items: vec![4]
            }
        );
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Extremes {
        seed: u64,
        big: f64,
    }
    impl_serde_struct!(Extremes { seed, big });

    #[test]
    fn u64_seeds_above_i64_max_roundtrip() {
        let v = Extremes {
            seed: u64::MAX,
            big: 1e19,
        };
        let json = to_json_string(&v);
        assert_eq!(from_json_str::<Extremes>(&json).unwrap(), v);
        let toml = to_toml_string(&v).unwrap();
        assert_eq!(
            from_toml_str::<Extremes>(&toml).unwrap(),
            v,
            "document:\n{toml}"
        );
        // Negative integers must not masquerade as unsigned.
        assert!(from_json_str::<Extremes>("{\"seed\": -1, \"big\": 1.0}").is_err());
    }

    /// `value`'s direct writer against the walk over its tree, at the top
    /// level and nested.
    fn assert_direct_matches_tree<T: Serialize + ?Sized>(value: &T) {
        let tree = value.serialize();
        assert_eq!(json::write(value), json::write(&tree));
        for indent in [1, 3] {
            let (mut direct, mut walked) = (String::new(), String::new());
            value.write_json(indent, &mut direct);
            tree.write_json(indent, &mut walked);
            assert_eq!(direct, walked, "at indent {indent}");
        }
    }

    #[test]
    fn direct_writers_match_the_tree_for_primitives() {
        for v in [i8::MIN, -1, 0, i8::MAX] {
            assert_direct_matches_tree(&v);
        }
        assert_direct_matches_tree(&i16::MIN);
        assert_direct_matches_tree(&i32::MAX);
        for v in [i64::MIN, -7, i64::MAX] {
            assert_direct_matches_tree(&v);
        }
        assert_direct_matches_tree(&u8::MAX);
        assert_direct_matches_tree(&u16::MAX);
        assert_direct_matches_tree(&u32::MAX);
        assert_direct_matches_tree(&usize::MAX);
        // Above i64::MAX the tree takes the `UInt` spill.
        for v in [0, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            assert_direct_matches_tree(&v);
        }
        for f in [
            0.0,
            -0.0,
            1.0,
            -2.5,
            1.0 / 3.0,
            1e15 - 1.0,
            1e15,
            -1e15,
            1e16,
            2.5e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_direct_matches_tree(&f);
        }
        for f in [1.1f32, -0.0, f32::MAX, f32::NAN] {
            assert_direct_matches_tree(&f);
        }
        assert_direct_matches_tree(&true);
        assert_direct_matches_tree(&false);
        for s in [
            "",
            "plain",
            "quote \" and \\ backslash",
            "nul \u{0} bell \u{7} tab \t nl \n cr \r us \u{1f} del \u{7f}",
            "ünïcødé ✓ 😀",
        ] {
            assert_direct_matches_tree(&s);
            assert_direct_matches_tree(&s.to_string());
        }
        // The formats themselves: one pinned rendering per writer branch.
        assert_eq!(json::write(&-0.0f64), "-0.0\n");
        assert_eq!(json::write(&2.0f64), "2.0\n");
        assert_eq!(json::write(&1e15f64), "1e15\n");
        assert_eq!(json::write(&0.1f64), "0.1\n");
        assert_eq!(json::write(&f64::NAN), "null\n");
        assert_eq!(json::write(&u64::MAX), "18446744073709551615\n");
        assert_eq!(json::write(&"\"\\\u{1}é"), "\"\\\"\\\\\\u0001é\"\n");
    }

    #[test]
    fn direct_writers_match_the_tree_for_containers_and_enums() {
        assert_direct_matches_tree(&Vec::<u32>::new());
        assert_direct_matches_tree(&vec![1u32, 2, 3]);
        assert_direct_matches_tree(&vec![vec![], vec![1u8], vec![]]);
        assert_direct_matches_tree(&[0.5f64, -0.0][..]);
        assert_direct_matches_tree(&None::<u64>);
        assert_direct_matches_tree(&Some(3u64));
        assert_direct_matches_tree(&vec![None, Some("x".to_string()), None]);
        assert_direct_matches_tree(&Mode::Fast);
        assert_direct_matches_tree(&vec![Mode::Slow, Mode::Fast]);
        assert_direct_matches_tree(&Value::Table(vec![]));
        assert_eq!(json::write(&Value::Table(vec![])), "{}\n");
        assert_direct_matches_tree(&sample());
        assert_direct_matches_tree(&vec![sample(), sample()]);
        let v = Extremes {
            seed: u64::MAX,
            big: f64::NEG_INFINITY,
        };
        assert_direct_matches_tree(&v);
    }

    #[test]
    fn huge_integral_floats_stay_floats() {
        for f in [1e15, 1e19, -2.5e300, (1u64 << 62) as f64] {
            let v = Extremes { seed: 0, big: f };
            let json = to_json_string(&v);
            assert_eq!(
                from_json_str::<Extremes>(&json).unwrap(),
                v,
                "json:\n{json}"
            );
            let toml = to_toml_string(&v).unwrap();
            assert_eq!(
                from_toml_str::<Extremes>(&toml).unwrap(),
                v,
                "toml:\n{toml}"
            );
        }
    }
}
