//! Class definitions: `type(C) = <a₁: type₁, …, Agg₁ with cc₁, …>` (§2).
//!
//! A class type combines named, typed attributes (possibly nested class
//! types, as in `Book.author = <name: string, birthday: date>`) with named
//! aggregation functions `Agg: type(C) → type(C')` carrying a
//! [`Cardinality`] constraint.

use crate::cardinality::Cardinality;
use crate::error::ModelError;
use crate::value::Value;
use std::fmt;

/// An interned-ish class name. Plain `String` newtype: schemas in this
/// domain are small (hundreds to low thousands of classes) and clarity wins.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassName(pub String);

impl ClassName {
    pub fn new(s: impl Into<String>) -> Self {
        ClassName(s.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Lets name-keyed maps be searched by `&str` without building a
/// `ClassName`; the derived order and hash are those of the inner string.
impl std::borrow::Borrow<str> for ClassName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ClassName {
    fn from(s: &str) -> Self {
        ClassName(s.to_string())
    }
}

impl From<String> for ClassName {
    fn from(s: String) -> Self {
        ClassName(s)
    }
}

/// The type of an attribute: a primitive, a nested (anonymous) class type,
/// or a set of either for multi-valued attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrType {
    Bool,
    Int,
    Real,
    Char,
    Str,
    Date,
    /// Nested complex type, e.g. `author: <name: string, birthday: date>`.
    Nested(Box<ClassType>),
    /// Multi-valued attribute, e.g. `interests: {string}` (Example 6).
    Set(Box<AttrType>),
}

impl AttrType {
    /// Does `v` conform to this type? `Null` conforms to every type.
    pub fn admits(&self, v: &Value) -> bool {
        match (self, v) {
            (_, Value::Null) => true,
            (AttrType::Bool, Value::Bool(_)) => true,
            (AttrType::Int, Value::Int(_)) => true,
            (AttrType::Real, Value::Real(_) | Value::Int(_)) => true,
            (AttrType::Char, Value::Char(_)) => true,
            (AttrType::Str, Value::Str(_)) => true,
            (AttrType::Date, Value::Date(_)) => true,
            // Nested complex values are referenced by OID in this store.
            (AttrType::Nested(_), Value::Oid(_)) => true,
            (AttrType::Set(inner), Value::Set(items)) => items.iter().all(|i| inner.admits(i)),
            _ => false,
        }
    }

    /// Human-readable type name.
    pub fn describe(&self) -> String {
        match self {
            AttrType::Bool => "boolean".into(),
            AttrType::Int => "integer".into(),
            AttrType::Real => "real".into(),
            AttrType::Char => "character".into(),
            AttrType::Str => "string".into(),
            AttrType::Date => "date".into(),
            AttrType::Nested(ct) => ct.to_string(),
            AttrType::Set(inner) => format!("{{{}}}", inner.describe()),
        }
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDef {
    pub name: String,
    pub ty: AttrType,
}

impl AttrDef {
    pub fn new(name: impl Into<String>, ty: AttrType) -> Self {
        AttrDef {
            name: name.into(),
            ty,
        }
    }
}

/// An aggregation function `Agg: type(C) → type(C')` with its cardinality
/// constraint, e.g. `Published_in: Proceedings with [m:1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggDef {
    pub name: String,
    pub range: ClassName,
    pub cc: Cardinality,
}

impl AggDef {
    pub fn new(name: impl Into<String>, range: impl Into<ClassName>, cc: Cardinality) -> Self {
        AggDef {
            name: name.into(),
            range: range.into(),
            cc,
        }
    }
}

/// The type of a class: ordered attribute and aggregation-function lists.
/// Order is preserved for faithful display; lookup is by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClassType {
    pub attributes: Vec<AttrDef>,
    pub aggregations: Vec<AggDef>,
}

impl ClassType {
    pub fn new() -> Self {
        ClassType::default()
    }

    pub fn attribute(&self, name: &str) -> Option<&AttrDef> {
        self.attributes.iter().find(|a| a.name == name)
    }

    pub fn aggregation(&self, name: &str) -> Option<&AggDef> {
        self.aggregations.iter().find(|a| a.name == name)
    }

    /// Add an attribute, rejecting duplicates across both member kinds.
    pub fn push_attribute(&mut self, attr: AttrDef) -> Result<(), ModelError> {
        if self.has_member(&attr.name) {
            return Err(ModelError::Duplicate(attr.name));
        }
        self.attributes.push(attr);
        Ok(())
    }

    /// Add an aggregation function, rejecting duplicates.
    pub fn push_aggregation(&mut self, agg: AggDef) -> Result<(), ModelError> {
        if self.has_member(&agg.name) {
            return Err(ModelError::Duplicate(agg.name));
        }
        self.aggregations.push(agg);
        Ok(())
    }

    pub fn has_member(&self, name: &str) -> bool {
        self.attribute(name).is_some() || self.aggregation(name).is_some()
    }
}

impl fmt::Display for ClassType {
    /// Paper-style: `<title: string, author_name: string,
    /// Published_in: Proceedings with [m:1]>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        let mut first = true;
        for a in &self.attributes {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}: {}", a.name, a.ty)?;
        }
        for g in &self.aggregations {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}: {} with {}", g.name, g.range, g.cc)?;
        }
        write!(f, ">")
    }
}

/// A named class together with its type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Class {
    pub name: ClassName,
    pub ty: ClassType,
}

impl Class {
    pub fn new(name: impl Into<ClassName>, ty: ClassType) -> Self {
        Class {
            name: name.into(),
            ty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn article_type() -> ClassType {
        let mut ty = ClassType::new();
        ty.push_attribute(AttrDef::new("title", AttrType::Str))
            .unwrap();
        ty.push_attribute(AttrDef::new("author_name", AttrType::Str))
            .unwrap();
        ty.push_aggregation(AggDef::new(
            "Published_in",
            "Proceedings",
            Cardinality::M_ONE,
        ))
        .unwrap();
        ty
    }

    #[test]
    fn display_matches_paper_form() {
        // type(Article) from §2.
        assert_eq!(
            article_type().to_string(),
            "<title: string, author_name: string, Published_in: Proceedings with [m:1]>"
        );
    }

    #[test]
    fn duplicate_members_rejected() {
        let mut ty = article_type();
        assert!(matches!(
            ty.push_attribute(AttrDef::new("title", AttrType::Int)),
            Err(ModelError::Duplicate(_))
        ));
        // aggregation name colliding with attribute name is also rejected
        assert!(ty
            .push_aggregation(AggDef::new("title", "X", Cardinality::ONE_ONE))
            .is_err());
    }

    #[test]
    fn lookup_by_name() {
        let ty = article_type();
        assert_eq!(ty.attribute("title").unwrap().ty, AttrType::Str);
        assert!(ty.attribute("nope").is_none());
        assert_eq!(
            ty.aggregation("Published_in").unwrap().range,
            ClassName::new("Proceedings")
        );
    }

    #[test]
    fn admits_checks_types() {
        assert!(AttrType::Str.admits(&Value::str("x")));
        assert!(!AttrType::Str.admits(&Value::Int(1)));
        assert!(AttrType::Int.admits(&Value::Null));
        assert!(AttrType::Real.admits(&Value::Int(3))); // int widens to real
        assert!(AttrType::Set(Box::new(AttrType::Str)).admits(&Value::str_set(["a"])));
        assert!(!AttrType::Set(Box::new(AttrType::Str))
            .admits(&Value::Set([Value::Int(1)].into_iter().collect())));
    }

    #[test]
    fn nested_type_displays() {
        let mut author = ClassType::new();
        author
            .push_attribute(AttrDef::new("name", AttrType::Str))
            .unwrap();
        author
            .push_attribute(AttrDef::new("birthday", AttrType::Date))
            .unwrap();
        let mut book = ClassType::new();
        book.push_attribute(AttrDef::new("ISBN", AttrType::Str))
            .unwrap();
        book.push_attribute(AttrDef::new("author", AttrType::Nested(Box::new(author))))
            .unwrap();
        assert_eq!(
            book.to_string(),
            "<ISBN: string, author: <name: string, birthday: date>>"
        );
    }
}
