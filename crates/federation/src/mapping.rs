//! Data mappings `F^A_{DBᵢ,B}` (§3) and the root-meta-class registry.
//!
//! Each mapping relates an attribute `A` of the integrated schema to an
//! attribute `B` of a component database, in one of the paper's three
//! forms:
//!
//! * `"default"` — all actual values of B form a subset of A (identity);
//! * a set of triples `(a, b; χ)` with `χ ∈ [0,1]` — fuzzy value
//!   correspondence;
//! * a function `y = f(x)` — here linear `y = a·x + b` (covers the paper's
//!   `y = 2.54·x` unit conversions).
//!
//! [`ObjectPairing`] records which OIDs denote the same real-world object
//! across components (the `oi₁ = oi₂ (in terms of data mapping)` of the
//! `concatenation` and `AIF` definitions), and [`MetaRegistry`] is the
//! "root-class (meta-class) pre-defined in the system" holding the three
//! accessing methods plus user-registered custom AIFs.

use oo_model::{Oid, Value};
use std::collections::{BTreeMap, BTreeSet};

/// One data mapping between an integrated attribute and a component
/// attribute.
#[derive(Debug, Clone)]
pub enum DataMapping {
    /// All values of B are valid values of A, unchanged.
    Default,
    /// Value triples `(a, b, χ)`: `b` (component) corresponds to `a`
    /// (integrated) with degree χ.
    Triples(Vec<(Value, Value, f64)>),
    /// `y = a·x + b` over numeric domains (component x → integrated y).
    Linear { a: f64, b: f64 },
}

impl DataMapping {
    /// Map a component value to the integrated domain, with its degree.
    pub fn to_integrated(&self, component: &Value) -> Option<(Value, f64)> {
        match self {
            DataMapping::Default => Some((component.clone(), 1.0)),
            DataMapping::Triples(ts) => ts
                .iter()
                .filter(|(_, b, _)| b == component)
                .max_by(|x, y| x.2.total_cmp(&y.2))
                .map(|(a, _, chi)| (a.clone(), *chi)),
            DataMapping::Linear { a, b } => {
                let x = component.as_f64()?;
                Some((Value::Real(a * x + b), 1.0))
            }
        }
    }

    /// Map an integrated value back to the component domain (used for
    /// pushing query constants down to agents).
    pub fn to_component(&self, integrated: &Value) -> Option<(Value, f64)> {
        match self {
            DataMapping::Default => Some((integrated.clone(), 1.0)),
            DataMapping::Triples(ts) => ts
                .iter()
                .filter(|(a, _, _)| a == integrated)
                .max_by(|x, y| x.2.total_cmp(&y.2))
                .map(|(_, b, chi)| (b.clone(), *chi)),
            DataMapping::Linear { a, b } => {
                if *a == 0.0 {
                    return None;
                }
                let y = integrated.as_f64()?;
                Some((Value::Real((y - b) / a), 1.0))
            }
        }
    }
}

/// Cross-component object identity: which OIDs denote the same real-world
/// entity.
#[derive(Debug, Clone, Default)]
pub struct ObjectPairing {
    pairs: BTreeSet<(Oid, Oid)>,
    /// Adjacency index over `pairs`, so [`Self::partners`] is a lookup
    /// instead of a scan — materialisation calls it once per object, and
    /// an O(pairs) scan there made bridge-fact generation quadratic in
    /// the federation size.
    adj: BTreeMap<Oid, Vec<Oid>>,
}

impl ObjectPairing {
    pub fn new() -> Self {
        ObjectPairing::default()
    }

    /// Record that `a` and `b` denote the same object (symmetric).
    pub fn pair(&mut self, a: Oid, b: Oid) {
        let key = if a <= b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        if self.pairs.insert(key) {
            self.adj.entry(a.clone()).or_default().push(b.clone());
            if a != b {
                self.adj.entry(b).or_default().push(a);
            }
        }
    }

    pub fn are_paired(&self, a: &Oid, b: &Oid) -> bool {
        let key = if a <= b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        self.pairs.contains(&key)
    }

    /// All recorded pairs, in canonical (smaller OID first) order.
    pub fn pairs(&self) -> impl Iterator<Item = &(Oid, Oid)> {
        self.pairs.iter()
    }

    /// All partners of `o`.
    pub fn partners(&self, o: &Oid) -> Vec<&Oid> {
        self.adj
            .get(o)
            .map(|v| v.iter().collect())
            .unwrap_or_default()
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Pair objects of two extents whose key attributes are equal — the
    /// usual way identity is established (matching social-security numbers
    /// etc.).
    pub fn pair_by_key<'a, I, J>(&mut self, left: I, key_left: &str, right: J, key_right: &str)
    where
        I: IntoIterator<Item = &'a oo_model::Object>,
        J: IntoIterator<Item = &'a oo_model::Object>,
    {
        let rights: Vec<&oo_model::Object> = right.into_iter().collect();
        for l in left {
            let lv = l.attr(key_left);
            if lv.is_null() {
                continue;
            }
            for r in &rights {
                if r.attr(key_right) == lv {
                    self.pair(l.oid.clone(), r.oid.clone());
                }
            }
        }
    }
}

/// A custom attribute-integration function, registered by name.
pub type AifFn = fn(&Value, &Value) -> Value;

/// The root meta-class: the registry of data mappings (keyed by integrated
/// attribute and component schema) and custom AIFs, with the three
/// accessing methods of §3 exposed through [`DataMapping`].
#[derive(Debug, Clone, Default)]
pub struct MetaRegistry {
    /// (integrated class, integrated attribute, component schema) → mapping.
    mappings: BTreeMap<(String, String, String), DataMapping>,
    /// Custom AIFs by name.
    aifs: BTreeMap<String, AifFn>,
    /// Cross-schema object identity.
    pub pairing: ObjectPairing,
}

impl MetaRegistry {
    pub fn new() -> Self {
        MetaRegistry::default()
    }

    pub fn set_mapping(
        &mut self,
        class: impl Into<String>,
        attr: impl Into<String>,
        schema: impl Into<String>,
        mapping: DataMapping,
    ) {
        self.mappings
            .insert((class.into(), attr.into(), schema.into()), mapping);
    }

    /// The mapping for (class, attr) against `schema`; `Default` when none
    /// was registered (the paper's `"default"` string).
    pub fn mapping(&self, class: &str, attr: &str, schema: &str) -> &DataMapping {
        static DEFAULT: DataMapping = DataMapping::Default;
        // Materialisation asks once per attribute of every object: skip
        // building the owned key when nothing is registered.
        if self.mappings.is_empty() {
            return &DEFAULT;
        }
        self.mappings
            .get(&(class.to_string(), attr.to_string(), schema.to_string()))
            .unwrap_or(&DEFAULT)
    }

    pub fn register_aif(&mut self, name: impl Into<String>, f: AifFn) {
        self.aifs.insert(name.into(), f);
    }

    pub fn aif(&self, name: &str) -> Option<&AifFn> {
        self.aifs.get(name)
    }
}

/// The paper's example AIF: numeric average `(x+y)/2` (Principle 3).
pub fn aif_average(x: &Value, y: &Value) -> Value {
    match (x.as_f64(), y.as_f64()) {
        (Some(a), Some(b)) => Value::Real((a + b) / 2.0),
        _ => Value::Null,
    }
}

/// The `concatenation(x, y)` of Principle 1 (for `α(z)` attributes):
/// string concatenation of paired objects' values, `Null` otherwise
/// (pairing is checked by the caller).
pub fn concatenation(x: &Value, y: &Value) -> Value {
    match (x, y) {
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (a, b) => {
            let sa = match a {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            };
            let sb = match b {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            };
            Value::Str(format!("{sa} {sb}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mapping_is_identity() {
        let m = DataMapping::Default;
        assert_eq!(
            m.to_integrated(&Value::str("x")),
            Some((Value::str("x"), 1.0))
        );
        assert_eq!(m.to_component(&Value::Int(5)), Some((Value::Int(5), 1.0)));
    }

    #[test]
    fn triples_pick_highest_degree() {
        let m = DataMapping::Triples(vec![
            (Value::str("Italian"), Value::str("Milan"), 0.8),
            (Value::str("European"), Value::str("Milan"), 0.4),
        ]);
        let (v, chi) = m.to_integrated(&Value::str("Milan")).unwrap();
        assert_eq!(v, Value::str("Italian"));
        assert!((chi - 0.8).abs() < 1e-9);
        assert!(m.to_integrated(&Value::str("Lyon")).is_none());
    }

    #[test]
    fn linear_mapping_inch_to_cm() {
        // The paper's y = 2.54 · x.
        let m = DataMapping::Linear { a: 2.54, b: 0.0 };
        let (v, _) = m.to_integrated(&Value::Int(10)).unwrap();
        assert_eq!(v, Value::Real(25.4));
        let (back, _) = m.to_component(&Value::Real(25.4)).unwrap();
        assert_eq!(back, Value::Real(10.0));
        assert!(m.to_integrated(&Value::str("x")).is_none());
    }

    #[test]
    fn linear_zero_slope_has_no_inverse() {
        let m = DataMapping::Linear { a: 0.0, b: 1.0 };
        assert!(m.to_component(&Value::Real(1.0)).is_none());
    }

    #[test]
    fn pairing_is_symmetric() {
        let mut p = ObjectPairing::new();
        let a = Oid::local("x", 1);
        let b = Oid::local("y", 1);
        p.pair(b.clone(), a.clone());
        assert!(p.are_paired(&a, &b));
        assert!(p.are_paired(&b, &a));
        assert_eq!(p.partners(&a), vec![&b]);
        assert!(!p.are_paired(&a, &Oid::local("z", 1)));
    }

    #[test]
    fn pair_by_key_matches_equal_values() {
        use oo_model::Object;
        let l1 = Object::new(Oid::local("f", 1), "f").with_attr("fssn", "123");
        let l2 = Object::new(Oid::local("f", 2), "f").with_attr("fssn", "456");
        let r1 = Object::new(Oid::local("s", 1), "s").with_attr("ssn", "123");
        let mut p = ObjectPairing::new();
        p.pair_by_key([&l1, &l2], "fssn", [&r1], "ssn");
        assert_eq!(p.len(), 1);
        assert!(p.are_paired(&l1.oid, &r1.oid));
    }

    #[test]
    fn registry_lookup_and_default() {
        let mut reg = MetaRegistry::new();
        reg.set_mapping(
            "person",
            "height",
            "S2",
            DataMapping::Linear { a: 2.54, b: 0.0 },
        );
        assert!(matches!(
            reg.mapping("person", "height", "S2"),
            DataMapping::Linear { .. }
        ));
        assert!(matches!(
            reg.mapping("person", "height", "S1"),
            DataMapping::Default
        ));
    }

    #[test]
    fn aif_average_and_registry() {
        assert_eq!(
            aif_average(&Value::Int(10), &Value::Int(20)),
            Value::Real(15.0)
        );
        assert_eq!(aif_average(&Value::str("x"), &Value::Int(1)), Value::Null);
        let mut reg = MetaRegistry::new();
        reg.register_aif("avg", aif_average);
        assert!(reg.aif("avg").is_some());
        assert!(reg.aif("nope").is_none());
    }

    #[test]
    fn concatenation_rules() {
        assert_eq!(
            concatenation(&Value::str("Darmstadt"), &Value::Int(64293)),
            Value::str("Darmstadt 64293")
        );
        assert_eq!(concatenation(&Value::Null, &Value::str("x")), Value::Null);
    }
}
