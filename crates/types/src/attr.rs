//! Attribute keys and values attached to inventory records.
//!
//! CORNET's planner and verifier are *attribute driven*: scheduling intents
//! name attributes (`market`, `timezone`, `pool_id`, …) and the framework
//! resolves them against the inventory at translation time (§3.3.2). We keep
//! attributes as an open string-keyed map rather than a closed struct so
//! that new network-function types can introduce attributes without code
//! changes — the heart of the paper's "NF-agnostic" claim.

use std::collections::BTreeMap;
use std::fmt;

/// Name of an attribute, e.g. `"market"` or `"timezone"`.
pub type AttrKey = String;

/// Value of a single inventory attribute.
///
/// Attribute values appear in three roles: grouping keys (strings), numeric
/// quantities compared with distance operators (the uniformity constraint
/// compares UTC offsets numerically), and weights.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Categorical value such as a market name or hardware version.
    Str(String),
    /// Integral value such as a pool id or capacity.
    Int(i64),
    /// Real value such as a UTC offset (may be fractional, e.g. +5.5).
    Float(f64),
}

impl AttrValue {
    /// Numeric view of the value, if it has one.
    ///
    /// Used by constraints that need a metric over attribute values, e.g.
    /// the uniformity constraint's "at most one timezone apart" rule.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Str(_) => None,
            AttrValue::Int(v) => Some(*v as f64),
            AttrValue::Float(v) => Some(*v),
        }
    }

    /// Canonical string form used as a grouping key.
    ///
    /// Two values group together iff their keys are equal; floats are
    /// formatted with enough precision that distinct offsets stay distinct.
    pub fn group_key(&self) -> String {
        match self {
            AttrValue::Str(s) => s.clone(),
            AttrValue::Int(v) => v.to_string(),
            AttrValue::Float(v) => format!("{v:.4}"),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

/// Ordered attribute map for one inventory record.
///
/// `BTreeMap` keeps iteration deterministic, which matters for reproducible
/// model generation: the same inventory must always produce the same
/// MiniZinc-style model text.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Attributes(pub BTreeMap<AttrKey, AttrValue>);

impl Attributes {
    /// Empty attribute map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an attribute, replacing any previous value under the key.
    pub fn set(&mut self, key: impl Into<AttrKey>, value: impl Into<AttrValue>) -> &mut Self {
        self.0.insert(key.into(), value.into());
        self
    }

    /// Builder-style insert for literal construction in tests and examples.
    pub fn with(mut self, key: impl Into<AttrKey>, value: impl Into<AttrValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Look up an attribute value.
    pub fn get(&self, key: &str) -> Option<&AttrValue> {
        self.0.get(key)
    }

    /// Grouping key for the attribute, or `None` when the record lacks it.
    pub fn group_key(&self, key: &str) -> Option<String> {
        self.get(key).map(AttrValue::group_key)
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrKey, &AttrValue)> {
        self.0.iter()
    }

    /// Number of attributes present.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no attributes are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_group_key() {
        let mut a = Attributes::new();
        a.set("market", "NYC")
            .set("pool_id", 7i64)
            .set("utc_offset", -5.0);
        assert_eq!(a.get("market"), Some(&AttrValue::Str("NYC".into())));
        assert_eq!(a.group_key("pool_id").as_deref(), Some("7"));
        assert_eq!(a.group_key("utc_offset").as_deref(), Some("-5.0000"));
        assert_eq!(a.group_key("missing"), None);
    }

    #[test]
    fn numeric_views() {
        assert_eq!(AttrValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(AttrValue::Float(-4.5).as_f64(), Some(-4.5));
        assert_eq!(AttrValue::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn deterministic_iteration_order() {
        let a = Attributes::new()
            .with("z", 1i64)
            .with("a", 2i64)
            .with("m", 3i64);
        let keys: Vec<_> = a.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "m", "z"]);
    }

    #[test]
    fn float_group_keys_distinguish_nearby_offsets() {
        // India (+5.5) must not collide with +5.
        let a = AttrValue::Float(5.5).group_key();
        let b = AttrValue::Float(5.0).group_key();
        assert_ne!(a, b);
    }
}
