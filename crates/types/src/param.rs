//! Typed parameters flowing between building blocks.
//!
//! Each building block is defined by an input/output parameter list (§3.1),
//! and the workflow designer must "ensure proper propagation of parameter
//! values across building blocks". `ParamType` gives the designer enough
//! type information to reject incompatible compositions at design time,
//! while `ParamValue` is the runtime value carried in the workflow's global
//! state.

use crate::json::JsonValue;
use crate::{CornetError, Result};
use std::collections::BTreeMap;
use std::fmt;

/// Static type of a building-block parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ParamType {
    /// UTF-8 text (node names, software versions, status strings).
    String,
    /// Signed integer.
    Int,
    /// Floating-point number (KPI values, thresholds).
    Float,
    /// Boolean flag (health status, go/no-go decisions).
    Bool,
    /// Homogeneous list (node lists, KPI vectors).
    List,
    /// String-keyed map (structured results such as pre/post reports).
    Map,
}

impl ParamType {
    /// Every type, in declaration order.
    pub const ALL: [ParamType; 6] = [
        ParamType::String,
        ParamType::Int,
        ParamType::Float,
        ParamType::Bool,
        ParamType::List,
        ParamType::Map,
    ];

    /// Lower-case name used in JSON documents (`"string"`, `"int"`, …).
    pub fn name(self) -> &'static str {
        match self {
            ParamType::String => "string",
            ParamType::Int => "int",
            ParamType::Float => "float",
            ParamType::Bool => "bool",
            ParamType::List => "list",
            ParamType::Map => "map",
        }
    }

    /// The type with this [`ParamType::name`].
    pub fn from_name(name: &str) -> Option<ParamType> {
        ParamType::ALL.into_iter().find(|t| t.name() == name)
    }
}

/// Runtime value of a building-block parameter.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// Text value.
    Str(String),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
    /// List value.
    List(Vec<ParamValue>),
    /// Map value.
    Map(BTreeMap<String, ParamValue>),
}

impl ParamValue {
    /// The [`ParamType`] this value inhabits.
    pub fn param_type(&self) -> ParamType {
        match self {
            ParamValue::Str(_) => ParamType::String,
            ParamValue::Int(_) => ParamType::Int,
            ParamValue::Float(_) => ParamType::Float,
            ParamValue::Bool(_) => ParamType::Bool,
            ParamValue::List(_) => ParamType::List,
            ParamValue::Map(_) => ParamType::Map,
        }
    }

    /// Borrow as `&str` if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as `bool` if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view (ints widen to floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Int(v) => Some(*v as f64),
            ParamValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Borrow as integer if this is an int.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Borrow the list contents if this is a list.
    pub fn as_list(&self) -> Option<&[ParamValue]> {
        match self {
            ParamValue::List(l) => Some(l),
            _ => None,
        }
    }

    /// Borrow the map contents if this is a map.
    pub fn as_map(&self) -> Option<&BTreeMap<String, ParamValue>> {
        match self {
            ParamValue::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Convert a parsed JSON document into a workflow-state value — the
    /// entry point for feeding intents (or any operator-supplied document)
    /// into a workflow's global state. Whole numbers within `i64` range
    /// become `Int`, other numbers `Float`. JSON `null` has no `ParamValue`
    /// analogue and is rejected.
    pub fn from_json_value(value: &JsonValue) -> Result<ParamValue> {
        Ok(match value {
            JsonValue::Null => {
                return Err(CornetError::Parse(
                    "JSON null has no workflow-state representation".into(),
                ))
            }
            JsonValue::Bool(b) => ParamValue::Bool(*b),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(n) {
                    ParamValue::Int(*n as i64)
                } else {
                    ParamValue::Float(*n)
                }
            }
            JsonValue::String(s) => ParamValue::Str(s.clone()),
            JsonValue::Array(items) => ParamValue::List(
                items
                    .iter()
                    .map(ParamValue::from_json_value)
                    .collect::<Result<_>>()?,
            ),
            JsonValue::Object(entries) => ParamValue::Map(
                entries
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), ParamValue::from_json_value(v)?)))
                    .collect::<Result<_>>()?,
            ),
        })
    }

    /// The value as JSON — the inverse of [`ParamValue::from_json_value`],
    /// used to hand state values to JSON-speaking consumers such as the
    /// planner's intent reader.
    pub fn to_json_value(&self) -> JsonValue {
        match self {
            ParamValue::Str(s) => JsonValue::String(s.clone()),
            ParamValue::Int(i) => JsonValue::Number(*i as f64),
            ParamValue::Float(f) => JsonValue::Number(*f),
            ParamValue::Bool(b) => JsonValue::Bool(*b),
            ParamValue::List(items) => {
                JsonValue::Array(items.iter().map(ParamValue::to_json_value).collect())
            }
            ParamValue::Map(entries) => JsonValue::Object(
                entries
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json_value()))
                    .collect(),
            ),
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Str(s) => f.write_str(s),
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            ParamValue::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<&str> for ParamValue {
    fn from(s: &str) -> Self {
        ParamValue::Str(s.to_owned())
    }
}

impl From<String> for ParamValue {
    fn from(s: String) -> Self {
        ParamValue::Str(s)
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types_match_values() {
        assert_eq!(ParamValue::from("x").param_type(), ParamType::String);
        assert_eq!(ParamValue::from(1i64).param_type(), ParamType::Int);
        assert_eq!(ParamValue::from(1.5).param_type(), ParamType::Float);
        assert_eq!(ParamValue::from(true).param_type(), ParamType::Bool);
        assert_eq!(ParamValue::List(vec![]).param_type(), ParamType::List);
        assert_eq!(
            ParamValue::Map(BTreeMap::new()).param_type(),
            ParamType::Map
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(ParamValue::from("hi").as_str(), Some("hi"));
        assert_eq!(ParamValue::from(2i64).as_f64(), Some(2.0));
        assert_eq!(ParamValue::from(2i64).as_i64(), Some(2));
        assert_eq!(ParamValue::from(false).as_bool(), Some(false));
        assert_eq!(ParamValue::from("hi").as_bool(), None);
    }

    #[test]
    fn display_nested() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), ParamValue::from(1i64));
        let v = ParamValue::List(vec![ParamValue::Map(m), ParamValue::from("z")]);
        assert_eq!(v.to_string(), "[{a: 1}, z]");
    }

    #[test]
    fn json_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("ok".to_string(), ParamValue::from(true));
        m.insert("ratio".to_string(), ParamValue::from(0.25));
        let v = ParamValue::List(vec![
            ParamValue::from(1i64),
            ParamValue::from("two"),
            ParamValue::Map(m),
        ]);
        let text = crate::json::to_canonical(&v.to_json_value());
        assert_eq!(text, r#"[1,"two",{"ok":true,"ratio":0.25}]"#);
        let back = ParamValue::from_json_value(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, v);
        assert!(ParamValue::from_json_value(&JsonValue::Null).is_err());
    }

    #[test]
    fn type_names_round_trip() {
        for t in ParamType::ALL {
            assert_eq!(ParamType::from_name(t.name()), Some(t));
        }
        assert_eq!(ParamType::from_name("text"), None);
    }
}
