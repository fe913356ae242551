//! Runtime values and data types.
//!
//! Values carry a total order across *all* variants so that they can serve as
//! keys of ordered (B-tree) indexes: `Null < Bool < Int/Float < Str`, with
//! integers and floats ordered numerically against each other, exactly
//! (an integer past 2^53 is not rounded to a float first). This mirrors how
//! SQL engines define an index collation over heterogeneous key spaces.

use std::cmp::Ordering;
use std::fmt;

/// Logical column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
        };
        f.write_str(s)
    }
}

/// A runtime value stored in a table cell.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    /// Returns the data type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the string slice if this is a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is an `Int` value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Rank used for the total (index) ordering across variants.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

/// Formats a float the way the engine prints it (no trailing `.0` noise for
/// integral values would be ambiguous, so keep one decimal for those).
fn format_float(x: f64) -> String {
    if x.fract() == 0.0 && x.is_finite() {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// Compares an integer with a float exactly, in the floats' `total_cmp`
/// order: the integer sits at its real value, `0` at `+0.0` (above `-0.0`),
/// below every positive NaN and above every negative one. Comparing
/// `i as f64` instead would round above 2^53 and break transitivity:
/// `Int(2^53 + 1) == Float(2^53) == Int(2^53)`.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    // 2^63, exact as a float: every float in [-2^63, 2^63) truncates to an i64
    const TWO_63: f64 = -(i64::MIN as f64);
    if f.is_nan() {
        return if f.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if f == 0.0 {
        let zero = if f.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Equal
        };
        return i.cmp(&0).then(zero);
    }
    if f >= TWO_63 {
        return Ordering::Less;
    }
    if f < -TWO_63 {
        return Ordering::Greater;
    }
    let whole = f.trunc();
    // the fraction `f - whole` is exact and lies in (-1, 1)
    i.cmp(&(whole as i64))
        .then_with(|| 0.0_f64.total_cmp(&(f - whole)))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used for index keys: nulls are orderable (lowest) and
    /// cross-type comparisons fall back to type rank.
    fn cmp(&self, other: &Self) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => cmp_int_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => unreachable!("same type rank implies comparable variants"),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash must agree with Eq: Int(2) == Float(2.0), so all numerics hash
        // through their f64 bit pattern. An Int equals a Float only when
        // the float holds it exactly, so `i as f64` is then that float.
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => (*i as f64).to_bits().hash(state),
            Value::Float(x) => x.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => f.write_str(&format_float(*x)),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn total_order_across_types() {
        let mut vals = vec![
            Value::Str("a".into()),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(1.5),
                Value::Int(3),
                Value::Str("a".into()),
            ]
        );
    }

    #[test]
    fn numeric_cross_type_equality_and_hash() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
        assert_ne!(Value::Int(2), Value::Float(2.5));
        assert!(Value::Int(0) > Value::Float(-0.0));
        assert_eq!(Value::Int(0), Value::Float(0.0));
        assert!(Value::Int(i64::MAX) < Value::Float(i64::MAX as f64));
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        assert!(Value::Int(-3) > Value::Float(-3.5));
        assert!(Value::Int(-3) < Value::Float(-2.5));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Int(i64::MIN) > Value::Float(-f64::NAN));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Str("x".into()).to_string(), "x");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(1.25f64), Value::Float(1.25));
    }
}
