//! An in-memory, inheritance-aware instance store.
//!
//! This is the stand-in for the *Ontos* platform (§2): it stores complex
//! O-terms, supports class extents that respect the is-a hierarchy
//! (`{<o:C>} ⊆ {<o':C'>}` whenever `<C : C'>`), applies aggregation
//! functions, and type-checks attribute values against class types on
//! insert.

use crate::class::ClassName;
use crate::error::ModelError;
use crate::object::Object;
use crate::oid::Oid;
use crate::schema::Schema;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One partition: the objects sharing an OID prefix, keyed by OID
/// number, so in OID order.
pub type Partition = Arc<BTreeMap<u64, Arc<Object>>>;

/// Instance store for one schema.
///
/// Objects are partitioned by OID prefix — the OID with its number set
/// to 0, i.e. the class of a local OID and the agent/dbms/db/relation of
/// a federated one — and keyed by OID number within a partition. Every
/// partition, object and class index is behind an `Arc`. Cloning a store
/// therefore costs O(partitions), and a write copies only the partition
/// and class index it touches, with no OID of its own: the snapshot
/// generations of a serving store share everything else. Partition keys
/// sort before the OIDs they hold and after every OID of an earlier
/// prefix, so walking partitions in key order and each partition in
/// number order is exactly global `Oid` order.
#[derive(Debug, Clone, Default)]
pub struct InstanceStore {
    parts: BTreeMap<Oid, Partition>,
    /// Per declared class: the partitions holding its objects, with how
    /// many each holds.
    by_class: BTreeMap<ClassName, Arc<BTreeMap<Oid, usize>>>,
    next_local: BTreeMap<ClassName, u64>,
    /// Monotone mutation counter. Query-result caches key on this to
    /// detect that a previously planned extent has changed.
    version: u64,
}

/// The objects that differ between two stores (see [`InstanceStore::diff`]).
#[derive(Debug, Default)]
pub struct StoreDiff<'a> {
    /// Objects of the newer store absent from, or different in, the older.
    pub added: Vec<&'a Object>,
    /// Objects of the older store absent from, or different in, the newer.
    pub removed: Vec<&'a Object>,
}

/// The partition key of `oid`: the same OID with number 0.
fn partition_key(oid: &Oid) -> Oid {
    match oid {
        Oid::Federated {
            agent,
            dbms,
            database,
            relation,
            ..
        } => Oid::federated(agent, dbms, database, relation, 0),
        Oid::Local { class, .. } => Oid::local(class, 0),
    }
}

/// Walk two key-ordered sequences of `(key, value)` pairs in key order,
/// calling `f` with each key's value on either side.
pub fn merge_walk<K: Ord, A, B>(
    new: impl IntoIterator<Item = (K, A)>,
    old: impl IntoIterator<Item = (K, B)>,
    mut f: impl FnMut(Option<A>, Option<B>),
) {
    let (mut a, mut b) = (new.into_iter().peekable(), old.into_iter().peekable());
    loop {
        let order = match (a.peek(), b.peek()) {
            (None, None) => return,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((ka, _)), Some((kb, _))) => ka.cmp(kb),
        };
        let x = order.is_le().then(|| a.next().map(|(_, v)| v)).flatten();
        let y = order.is_ge().then(|| b.next().map(|(_, v)| v)).flatten();
        f(x, y);
    }
}

impl InstanceStore {
    pub fn new() -> Self {
        InstanceStore::default()
    }

    /// Insert an object after validating its class and attribute types
    /// against `schema`. Aggregation-function cardinalities on the "many
    /// targets" side are enforced ( `[_:1]` ⇒ at most one target). A
    /// local OID must name the object's class: readers take an object's
    /// class from its local OID without looking the object up.
    pub fn insert(&mut self, schema: &Schema, obj: Object) -> Result<(), ModelError> {
        let class = schema
            .class(&obj.class)
            .ok_or_else(|| ModelError::UnknownClass(obj.class.0.clone()))?;
        if let Oid::Local { class: named, .. } = &obj.oid {
            if *named != obj.class.0 {
                return Err(ModelError::Invalid(format!(
                    "local OID `{}` names another class than `{}`",
                    obj.oid, obj.class.0
                )));
            }
        }
        let attrs = schema.all_attributes(&obj.class);
        for (name, value) in obj.attrs() {
            let def = attrs.iter().find(|a| &a.name == name).ok_or_else(|| {
                ModelError::UnknownMember {
                    class: obj.class.0.clone(),
                    member: name.clone(),
                }
            })?;
            if !def.ty.admits(value) {
                return Err(ModelError::TypeMismatch {
                    class: obj.class.0.clone(),
                    attr: name.clone(),
                    expected: def.ty.describe(),
                    got: value.type_name().to_string(),
                });
            }
        }
        let aggs = schema.all_aggregations(&obj.class);
        for (name, targets) in obj.aggs() {
            let def =
                aggs.iter()
                    .find(|g| &g.name == name)
                    .ok_or_else(|| ModelError::UnknownMember {
                        class: obj.class.0.clone(),
                        member: name.clone(),
                    })?;
            if let Some(max) = def.cc.max_targets() {
                if targets.len() > max {
                    return Err(ModelError::CardinalityViolation {
                        class: obj.class.0.clone(),
                        agg: name.clone(),
                        detail: format!("{} targets exceed {}", targets.len(), def.cc),
                    });
                }
            }
        }
        if self.get(&obj.oid).is_some() {
            return Err(ModelError::Duplicate(obj.oid.to_string()));
        }
        let key = partition_key(&obj.oid);
        let parts = Arc::make_mut(self.by_class.entry(class.name.clone()).or_default());
        *parts.entry(key.clone()).or_default() += 1;
        Arc::make_mut(self.parts.entry(key).or_default()).insert(obj.oid.number(), Arc::new(obj));
        self.version += 1;
        Ok(())
    }

    /// The extent version: incremented on every successful mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Allocate a fresh local OID for `class` and insert the object built by
    /// `f`. Convenient for tests and examples.
    pub fn create<F>(&mut self, schema: &Schema, class: &str, f: F) -> Result<Oid, ModelError>
    where
        F: FnOnce(Object) -> Object,
    {
        let cname = ClassName::new(class);
        let n = self.next_local.entry(cname.clone()).or_insert(0);
        *n += 1;
        let oid = Oid::local(class, *n);
        let obj = f(Object::new(oid.clone(), cname));
        self.insert(schema, obj)?;
        Ok(oid)
    }

    /// Remove the object `oid`, returning it. Maintains the class index
    /// and bumps the version. `None` (and no version bump) if absent.
    pub fn delete(&mut self, oid: &Oid) -> Option<Object> {
        let (key, part) = self.parts.range_mut(..=oid).next_back()?;
        if !key.same_source(oid) || !part.contains_key(&oid.number()) {
            return None;
        }
        let key = key.clone();
        let obj = Arc::make_mut(part).remove(&oid.number())?;
        if part.is_empty() {
            self.parts.remove(&key);
        }
        if let Some(parts) = self.by_class.get_mut(&obj.class) {
            let parts_mut = Arc::make_mut(parts);
            if let Some(n) = parts_mut.get_mut(&key) {
                *n -= 1;
                if *n == 0 {
                    parts_mut.remove(&key);
                }
            }
            if parts.is_empty() {
                self.by_class.remove(&obj.class);
            }
        }
        self.version += 1;
        Some(Arc::unwrap_or_clone(obj))
    }

    /// Rebuild the object `oid` through `f` and re-validate the result
    /// against `schema` (same checks as [`InstanceStore::insert`]). The
    /// OID and class are pinned: `f` may change attributes and
    /// aggregation targets only. On any error the store is unchanged.
    pub fn update<F>(&mut self, schema: &Schema, oid: &Oid, f: F) -> Result<(), ModelError>
    where
        F: FnOnce(Object) -> Object,
    {
        let old = self
            .get(oid)
            .cloned()
            .ok_or_else(|| ModelError::Invalid(format!("no object `{oid}`")))?;
        let class = old.class.clone();
        let new = f(old.clone());
        if new.oid != *oid || new.class != class {
            return Err(ModelError::Invalid(format!(
                "update may not change the OID or class of `{oid}`"
            )));
        }
        self.delete(oid);
        match self.insert(schema, new) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Roll back: the old object was valid when first inserted.
                self.insert(schema, old)
                    .expect("reinserting a previously valid object");
                self.version -= 2; // net: unchanged store, unchanged version
                Err(e)
            }
        }
    }

    /// The object `oid`. Allocates nothing: the only partition that can
    /// hold `oid` is the last one whose key is not greater than it.
    pub fn get(&self, oid: &Oid) -> Option<&Object> {
        let (key, part) = self.parts.range(..=oid).next_back()?;
        if !key.same_source(oid) {
            return None;
        }
        part.get(&oid.number()).map(|o| &**o)
    }

    pub fn len(&self) -> usize {
        self.parts.values().map(|p| p.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Every object, in `Oid` order.
    pub fn iter(&self) -> impl Iterator<Item = &Object> {
        self.parts.values().flat_map(|p| p.values().map(|o| &**o))
    }

    /// The partitions with their keys (the OID prefix with number 0), in
    /// key order. A partition no write copied is the same `Arc` in every
    /// clone of the store, so a cache may key on its address, provided it
    /// holds a clone or a `Weak` of it: that pins the allocation, and a
    /// write to a partition someone else holds copies it to a new one.
    pub fn partitions(&self) -> impl Iterator<Item = (&Oid, &Partition)> {
        self.parts.iter()
    }

    /// The objects that differ between this store and `older`, another
    /// snapshot of the same lineage, in `Oid` order. Partitions and
    /// objects the two still share (`Arc::ptr_eq`) are skipped without
    /// being compared, so the cost is O(partitions) plus the size of the
    /// partitions a write copied. The diff is symmetric:
    /// `older.diff(self)` swaps `added` and `removed`.
    pub fn diff<'a>(&'a self, older: &'a InstanceStore) -> StoreDiff<'a> {
        let mut out = StoreDiff::default();
        merge_walk(&self.parts, &older.parts, |new, old| match (new, old) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => {}
            (Some(a), Some(b)) => merge_walk(&**a, &**b, |x, y| match (x, y) {
                (Some(x), Some(y)) if Arc::ptr_eq(x, y) || x == y => {}
                (x, y) => {
                    out.added.extend(x.map(|o| &**o));
                    out.removed.extend(y.map(|o| &**o));
                }
            }),
            (a, b) => {
                out.added
                    .extend(a.into_iter().flat_map(|p| p.values().map(|o| &**o)));
                out.removed
                    .extend(b.into_iter().flat_map(|p| p.values().map(|o| &**o)));
            }
        });
        out
    }

    /// Direct-extent sizes per declared class, without walking objects —
    /// O(classes), for cardinality statistics.
    pub fn class_counts(&self) -> impl Iterator<Item = (&ClassName, usize)> {
        self.by_class
            .iter()
            .map(|(c, parts)| (c, parts.values().sum()))
    }

    /// Objects whose *declared* class is exactly `class`.
    pub fn direct_extent(&self, class: &ClassName) -> Vec<&Object> {
        let Some(parts) = self.by_class.get(class) else {
            return Vec::new();
        };
        parts
            .keys()
            .filter_map(|key| self.parts.get(key))
            .flat_map(|part| part.values().map(|o| &**o))
            .filter(|o| o.class == *class)
            .collect()
    }

    /// The full extent of `class`: instances of the class and of all its
    /// subclasses (the subclass semantics of the typing O-term, §2).
    pub fn extent(&self, schema: &Schema, class: &ClassName) -> Vec<&Object> {
        let mut classes: Vec<ClassName> = vec![class.clone()];
        classes.extend(schema.descendants(class));
        classes.sort();
        let mut out = Vec::new();
        for c in classes {
            out.extend(self.direct_extent(&c));
        }
        out
    }

    /// Apply aggregation function `agg` to the object `oid`, returning the
    /// referenced objects.
    pub fn apply_agg(&self, oid: &Oid, agg: &str) -> Vec<&Object> {
        self.get(oid)
            .map(|o| o.agg(agg).iter().filter_map(|t| self.get(t)).collect())
            .unwrap_or_default()
    }

    /// The `value_set(att)` of §5: the largest non-null subset of the
    /// attribute's domain w.r.t. the current database state, over the full
    /// extent of `class`.
    pub fn value_set(&self, schema: &Schema, class: &ClassName, attr: &str) -> BTreeSet<Value> {
        self.extent(schema, class)
            .into_iter()
            .map(|o| o.attr(attr))
            .filter(|v| !v.is_null())
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::cardinality::Cardinality;
    use crate::class::AttrType;

    fn schema() -> Schema {
        SchemaBuilder::new("S1")
            .class("person", |c| c.attr("name", AttrType::Str))
            .class("student", |c| c.attr("gpa", AttrType::Real))
            .class("dept", |c| c.attr("dname", AttrType::Str))
            .class("empl", |c| {
                c.attr("ename", AttrType::Str)
                    .agg("work_in", "dept", Cardinality::M_ONE)
            })
            .isa("student", "person")
            .build()
            .unwrap()
    }

    #[test]
    fn insert_and_get() {
        let s = schema();
        let mut store = InstanceStore::new();
        let oid = store
            .create(&s, "person", |o| o.with_attr("name", "Ann"))
            .unwrap();
        assert_eq!(store.get(&oid).unwrap().attr("name"), &Value::str("Ann"));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn type_checking_on_insert() {
        let s = schema();
        let mut store = InstanceStore::new();
        let err = store
            .create(&s, "person", |o| o.with_attr("name", 42i64))
            .unwrap_err();
        assert!(matches!(err, ModelError::TypeMismatch { .. }));
        let err = store
            .create(&s, "person", |o| o.with_attr("ghost", "x"))
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownMember { .. }));
        assert!(store.create(&s, "nosuch", |o| o).is_err());
    }

    #[test]
    fn inherited_attribute_accepted_on_subclass() {
        let s = schema();
        let mut store = InstanceStore::new();
        store
            .create(&s, "student", |o| {
                o.with_attr("name", "Bob").with_attr("gpa", 3.5)
            })
            .unwrap();
    }

    #[test]
    fn extent_respects_inheritance() {
        let s = schema();
        let mut store = InstanceStore::new();
        store
            .create(&s, "person", |o| o.with_attr("name", "Ann"))
            .unwrap();
        store
            .create(&s, "student", |o| o.with_attr("name", "Bob"))
            .unwrap();
        assert_eq!(store.direct_extent(&"person".into()).len(), 1);
        assert_eq!(store.extent(&s, &"person".into()).len(), 2);
        assert_eq!(store.extent(&s, &"student".into()).len(), 1);
    }

    #[test]
    fn aggregation_application() {
        let s = schema();
        let mut store = InstanceStore::new();
        let d = store
            .create(&s, "dept", |o| o.with_attr("dname", "CS"))
            .unwrap();
        let e = store
            .create(&s, "empl", |o| {
                o.with_attr("ename", "Eve").with_agg("work_in", d.clone())
            })
            .unwrap();
        let targets = store.apply_agg(&e, "work_in");
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].attr("dname"), &Value::str("CS"));
    }

    #[test]
    fn cardinality_enforced() {
        let s = schema();
        let mut store = InstanceStore::new();
        let d1 = store
            .create(&s, "dept", |o| o.with_attr("dname", "A"))
            .unwrap();
        let d2 = store
            .create(&s, "dept", |o| o.with_attr("dname", "B"))
            .unwrap();
        // work_in is [m:1]: a second target violates the constraint.
        let err = store
            .create(&s, "empl", |o| {
                o.with_agg("work_in", d1.clone())
                    .with_agg("work_in", d2.clone())
            })
            .unwrap_err();
        assert!(matches!(err, ModelError::CardinalityViolation { .. }));
    }

    #[test]
    fn value_set_skips_nulls() {
        let s = schema();
        let mut store = InstanceStore::new();
        store
            .create(&s, "person", |o| o.with_attr("name", "Ann"))
            .unwrap();
        store.create(&s, "person", |o| o).unwrap(); // name unset → Null
        let vs = store.value_set(&s, &"person".into(), "name");
        assert_eq!(vs.len(), 1);
    }

    #[test]
    fn delete_maintains_extents_and_version() {
        let s = schema();
        let mut store = InstanceStore::new();
        let a = store
            .create(&s, "person", |o| o.with_attr("name", "Ann"))
            .unwrap();
        let b = store
            .create(&s, "student", |o| o.with_attr("name", "Bob"))
            .unwrap();
        let v = store.version();
        let gone = store.delete(&b).unwrap();
        assert_eq!(gone.attr("name"), &Value::str("Bob"));
        assert_eq!(store.version(), v + 1);
        assert_eq!(store.extent(&s, &"person".into()).len(), 1);
        assert!(store.get(&b).is_none());
        assert!(store.get(&a).is_some());
        // Deleting a missing object is a no-op, version included.
        assert!(store.delete(&b).is_none());
        assert_eq!(store.version(), v + 1);
    }

    #[test]
    fn update_revalidates_and_rolls_back() {
        let s = schema();
        let mut store = InstanceStore::new();
        let a = store
            .create(&s, "person", |o| o.with_attr("name", "Ann"))
            .unwrap();
        let v = store.version();
        store
            .update(&s, &a, |o| o.with_attr("name", "Anna"))
            .unwrap();
        assert_eq!(store.get(&a).unwrap().attr("name"), &Value::str("Anna"));
        assert!(store.version() > v);

        // A type-invalid update leaves the store (and version) untouched.
        let v = store.version();
        let err = store
            .update(&s, &a, |o| o.with_attr("name", 7i64))
            .unwrap_err();
        assert!(matches!(err, ModelError::TypeMismatch { .. }));
        assert_eq!(store.get(&a).unwrap().attr("name"), &Value::str("Anna"));
        assert_eq!(store.version(), v);

        // The OID and class are pinned.
        let err = store
            .update(&s, &a, |o| Object::new(Oid::local("person", 99), o.class))
            .unwrap_err();
        assert!(matches!(err, ModelError::Invalid(_)));
        assert!(store.update(&s, &Oid::local("person", 42), |o| o).is_err());
    }

    #[test]
    fn local_oid_must_name_its_class() {
        let s = schema();
        let mut store = InstanceStore::new();
        let err = store
            .insert(&s, Object::new(Oid::local("dept", 1), "person"))
            .unwrap_err();
        assert!(matches!(err, ModelError::Invalid(_)));
        assert!(store.is_empty());
        store
            .insert(&s, Object::new(Oid::local("person", 1), "person"))
            .unwrap();
        let fed = Oid::federated("a", "rdb", "db", "dept", 1);
        store.insert(&s, Object::new(fed, "person")).unwrap();
    }

    #[test]
    fn duplicate_oid_rejected() {
        let s = schema();
        let mut store = InstanceStore::new();
        let obj = Object::new(Oid::local("person", 1), "person");
        store.insert(&s, obj.clone()).unwrap();
        assert!(matches!(
            store.insert(&s, obj),
            Err(ModelError::Duplicate(_))
        ));
    }
}
