//! Differential test of the structurally shared `InstanceStore` against a
//! plain `BTreeMap<Oid, Object>` model: random create/insert/update/delete
//! sequences over local and federated OIDs, with clones taken mid-sequence
//! and writes spread over all of them.

use oo_model::{AttrType, ClassName, InstanceStore, Object, Oid, Schema, SchemaBuilder};
use proptest::prelude::*;
use std::collections::BTreeMap;

const CLASSES: [&str; 3] = ["person", "student", "dept"];
const RELATIONS: [&str; 3] = ["r1", "r2", "r3"];

fn schema() -> Schema {
    SchemaBuilder::new("S")
        .class("person", |c| c.attr("name", AttrType::Str))
        .class("student", |c| c.attr("gpa", AttrType::Int))
        .class("dept", |c| c.attr("dname", AttrType::Str))
        .isa("student", "person")
        .build()
        .unwrap()
}

/// The one string attribute every object of `class` may carry.
fn attr_of(class: &str) -> &'static str {
    if class == "dept" {
        "dname"
    } else {
        "name"
    }
}

/// The reference: what a store should hold, plus its version and local
/// OID counters.
#[derive(Clone, Default)]
struct Model {
    objects: BTreeMap<Oid, Object>,
    next_local: BTreeMap<String, u64>,
    version: u64,
}

impl Model {
    fn insert(&mut self, obj: Object) -> bool {
        if self.objects.contains_key(&obj.oid) {
            return false;
        }
        self.objects.insert(obj.oid.clone(), obj);
        self.version += 1;
        true
    }

    fn nth_oid(&self, k: usize) -> Option<Oid> {
        let n = self.objects.len();
        (n > 0).then(|| self.objects.keys().nth(k % n).unwrap().clone())
    }
}

fn assert_matches(store: &InstanceStore, model: &Model) {
    let got: Vec<&Object> = store.iter().collect();
    let want: Vec<&Object> = model.objects.values().collect();
    assert_eq!(got, want, "iter order and contents");
    assert_eq!(store.len(), model.objects.len());
    assert_eq!(store.is_empty(), model.objects.is_empty());
    assert_eq!(store.version(), model.version);
    for (oid, obj) in &model.objects {
        assert_eq!(store.get(oid), Some(obj));
    }
    for probe in [
        Oid::local("person", 999),
        Oid::local("zzz", 1),
        Oid::federated("a", "b", "c", "r0", 1),
        Oid::federated("a", "b", "c", "r2", 999),
    ] {
        assert_eq!(store.get(&probe), model.objects.get(&probe));
    }
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for obj in model.objects.values() {
        *counts.entry(obj.class.as_str()).or_default() += 1;
    }
    let got_counts: BTreeMap<&str, usize> =
        store.class_counts().map(|(c, n)| (c.as_str(), n)).collect();
    assert_eq!(got_counts, counts, "class_counts");
    for class in CLASSES {
        let want: Vec<&Object> = model
            .objects
            .values()
            .filter(|o| o.class.as_str() == class)
            .collect();
        assert_eq!(store.direct_extent(&ClassName::new(class)), want);
    }
}

/// `newer.diff(older)` must equal the models' set differences over
/// `(oid, object)` entries.
fn assert_diff(newer: (&InstanceStore, &Model), older: (&InstanceStore, &Model)) {
    let minus = |a: &Model, b: &Model| -> Vec<Object> {
        a.objects
            .iter()
            .filter(|(oid, obj)| b.objects.get(*oid) != Some(*obj))
            .map(|(_, obj)| obj.clone())
            .collect()
    };
    let diff = newer.0.diff(older.0);
    let added: Vec<Object> = diff.added.into_iter().cloned().collect();
    let removed: Vec<Object> = diff.removed.into_iter().cloned().collect();
    assert_eq!(added, minus(newer.1, older.1), "diff.added");
    assert_eq!(removed, minus(older.1, newer.1), "diff.removed");
}

/// Apply one generated operation to `store` and its model.
fn step(schema: &Schema, store: &mut InstanceStore, model: &mut Model, op: (u8, usize, u64, u64)) {
    let (kind, a, b, v) = op;
    let class = CLASSES[a % CLASSES.len()];
    let value = format!("v{v}");
    match kind {
        // Allocate a fresh local OID.
        0 => {
            let oid = store
                .create(schema, class, |o| {
                    o.with_attr(attr_of(class), value.clone())
                })
                .ok();
            let n = model.next_local.entry(class.to_string()).or_insert(0);
            *n += 1;
            let want = Oid::local(class, *n);
            let obj = Object::new(want.clone(), class).with_attr(attr_of(class), value);
            let inserted = model.insert(obj);
            assert_eq!(oid, inserted.then_some(want));
        }
        // Insert under a federated OID (its partition is the relation,
        // not the class) or an explicit local OID.
        1 | 2 => {
            let oid = if kind == 1 {
                Oid::federated("a1", "ifx", "db", RELATIONS[b as usize % 3], v % 8)
            } else {
                Oid::local(class, b % 6)
            };
            let obj = Object::new(oid, class).with_attr(attr_of(class), value);
            let ok = store.insert(schema, obj.clone()).is_ok();
            assert_eq!(ok, model.insert(obj));
        }
        // Update an existing object; every fifth update is type-invalid
        // and must leave store and version untouched.
        3 => {
            let Some(oid) = model.nth_oid(a) else { return };
            let obj = model.objects[&oid].clone();
            let attr = attr_of(obj.class.as_str());
            let res = if v % 5 == 0 {
                store.update(schema, &oid, |o| o.with_attr(attr, 7i64))
            } else {
                store.update(schema, &oid, |o| o.with_attr(attr, value.clone()))
            };
            if v % 5 == 0 {
                assert!(res.is_err());
            } else {
                res.unwrap();
                model.objects.insert(oid, obj.with_attr(attr, value));
                model.version += 2;
            }
        }
        // Delete an existing object, or a missing one (a no-op).
        _ => {
            let oid = match model.nth_oid(a) {
                Some(oid) if b % 4 != 0 => oid,
                _ => Oid::federated("a1", "ifx", "db", "r9", b),
            };
            let got = store.delete(&oid);
            let want = model.objects.remove(&oid);
            if want.is_some() {
                model.version += 1;
            }
            assert_eq!(got, want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every clone of a lineage equals its model after any interleaving of
    /// writes, no write leaks into another clone, and `diff` between any
    /// two clones equals the models' set differences.
    #[test]
    fn shared_store_matches_btreemap_model(
        ops in proptest::collection::vec((0u8..7, 0usize..64, 0u64..16, 0u64..32), 1..120)
    ) {
        let schema = schema();
        let mut lineage: Vec<(InstanceStore, Model)> = vec![(InstanceStore::new(), Model::default())];
        let mut cur = 0;
        for (kind, a, b, v) in ops {
            match kind {
                // Take a clone of the current store: a new snapshot that
                // shares every partition with it.
                5 => {
                    let snapshot = lineage[cur].clone();
                    lineage.push(snapshot);
                    let last = lineage.len() - 1;
                    assert_diff((&lineage[last].0, &lineage[last].1), (&lineage[cur].0, &lineage[cur].1));
                    cur = last;
                }
                // Move the writes to another clone.
                6 => cur = a % lineage.len(),
                _ => {
                    let (store, model) = &mut lineage[cur];
                    step(&schema, store, model, (kind, a, b, v));
                    assert_matches(store, model);
                }
            }
        }
        for (store, model) in &lineage {
            assert_matches(store, model);
        }
        for (i, newer) in lineage.iter().enumerate() {
            for older in &lineage[..i] {
                assert_diff((&newer.0, &newer.1), (&older.0, &older.1));
                assert_diff((&older.0, &older.1), (&newer.0, &newer.1));
            }
        }
    }
}
