//! Dense class ids for one schema: its classes numbered in name order,
//! with the is-a links as per-id parent and child rows.
//!
//! The view is built in one pass over [`Schema::isa_links`]. Because ids
//! follow name order, an id list sorted by id is sorted by name, and every
//! row comes out ascending. The schema linter and the integration engine
//! share one view per schema and per run, so neither re-keys classes by
//! name.

use crate::{ClassName, Schema};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hash state for maps keyed by class names or ids.
pub type IdHash = BuildHasherDefault<IdHasher>;

/// A class's dense id: its rank in name order.
pub type ClassId = u32;

/// Compressed per-node lists: row `i` is `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
pub struct Rows<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Rows<T> {
    /// `rows` rows from `(row, item)` entries; each row keeps the entries'
    /// order.
    pub fn new(rows: usize, entries: impl Iterator<Item = (ClassId, T)>) -> Self {
        let mut entries: Vec<(ClassId, T)> = entries.collect();
        entries.sort_by_key(|&(r, _)| r);
        let mut offsets = vec![0u32; rows + 1];
        for &(r, _) in &entries {
            offsets[r as usize + 1] += 1;
        }
        for i in 0..rows {
            offsets[i + 1] += offsets[i];
        }
        let items = entries.into_iter().map(|(_, item)| item).collect();
        Rows { offsets, items }
    }

    pub fn row(&self, r: ClassId) -> &[T] {
        let r = r as usize;
        &self.items[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }
}

/// A schema's classes by dense id, with is-a parent and child rows.
#[derive(Debug, Clone)]
pub struct ClassIds<'a> {
    pub schema: &'a Schema,
    /// Node names by id (name order).
    names: Vec<&'a ClassName>,
    /// Node ids by name.
    index: HashMap<&'a str, ClassId, IdHash>,
    /// Direct superclasses by id, ascending.
    parents: Rows<ClassId>,
    /// Direct subclasses by id, ascending.
    children: Rows<ClassId>,
    /// Does some is-a link name a class the schema does not declare?
    stray_links: bool,
}

impl<'a> ClassIds<'a> {
    /// The schema's declared classes; links with an undeclared endpoint
    /// are left out (see [`ClassIds::has_stray_links`]).
    pub fn new(schema: &'a Schema) -> Self {
        ClassIds::over(schema, schema.class_names().collect())
    }

    /// Every name the schema declares or mentions in an is-a link, so that
    /// no link is left out. Only schemas assembled without the checks of
    /// [`Schema::add_isa`] differ from [`ClassIds::new`].
    pub fn with_link_endpoints(schema: &'a Schema) -> Self {
        let mut names: Vec<&ClassName> = schema
            .class_names()
            .chain(schema.isa_links().flat_map(|(sub, sup)| [sub, sup]))
            .collect();
        names.sort_unstable();
        names.dedup();
        ClassIds::over(schema, names)
    }

    fn over(schema: &'a Schema, names: Vec<&'a ClassName>) -> Self {
        let index: HashMap<&str, ClassId, _> = names
            .iter()
            .enumerate()
            .map(|(i, c)| (c.as_str(), i as ClassId))
            .collect();
        let id = |c: &ClassName| index.get(c.as_str()).copied();
        let mut stray_links = false;
        // `isa_links` is sorted by (sub, sup), ids follow name order, and
        // `Rows` keeps each row's entry order: every row comes out
        // ascending.
        let links: Vec<(ClassId, ClassId)> = schema
            .isa_links()
            .filter_map(|(sub, sup)| {
                let link = id(sub).zip(id(sup));
                stray_links |= link.is_none();
                link
            })
            .collect();
        let n = names.len();
        ClassIds {
            schema,
            parents: Rows::new(n, links.iter().copied()),
            children: Rows::new(n, links.iter().map(|&(sub, sup)| (sup, sub))),
            names,
            index,
            stray_links,
        }
    }

    /// The id of a class name.
    pub fn id(&self, name: &str) -> Option<ClassId> {
        self.index.get(name).copied()
    }

    /// The name of a node.
    pub fn name(&self, id: ClassId) -> Option<&'a str> {
        self.names.get(id as usize).map(|c| c.as_str())
    }

    /// Direct superclasses, ascending.
    pub fn parents(&self, id: ClassId) -> &[ClassId] {
        self.parents.row(id)
    }

    /// Direct subclasses, ascending.
    pub fn children(&self, id: ClassId) -> &[ClassId] {
        self.children.row(id)
    }

    /// True when an is-a link names a class the schema does not declare;
    /// [`ClassIds::new`] leaves such links out.
    pub fn has_stray_links(&self) -> bool {
        self.stray_links
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// The multiply-rotate hash of rustc's `FxHasher`, for keys that are class
/// names or ids: they are short and come from schemas, not from hostile
/// input, so SipHash's set-up buys nothing.
#[derive(Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemaBuilder;

    #[test]
    fn rows_follow_name_order() {
        let s = SchemaBuilder::new("S")
            .empty_class("top")
            .empty_class("l")
            .empty_class("r")
            .empty_class("both")
            .isa("l", "top")
            .isa("r", "top")
            .isa("both", "l")
            .isa("both", "r")
            .build()
            .unwrap();
        let ids = ClassIds::new(&s);
        let names =
            |row: &[ClassId]| -> Vec<&str> { row.iter().map(|&c| ids.name(c).unwrap()).collect() };
        let id = |n: &str| ids.id(n).unwrap();
        assert_eq!(ids.len(), 4);
        assert_eq!(names(ids.parents(id("both"))), ["l", "r"]);
        assert_eq!(names(ids.children(id("top"))), ["l", "r"]);
        assert!(ids.parents(id("top")).is_empty());
        assert!(!ids.has_stray_links());
        assert_eq!(ids.id("ghost"), None);
    }

    #[test]
    fn stray_links_are_flagged_and_kept_on_request() {
        let mut s = Schema::new("S");
        s.add_class(crate::Class::new("a", crate::ClassType::new()))
            .unwrap();
        s.add_isa_unchecked("a", "ghost");
        let declared = ClassIds::new(&s);
        assert!(declared.has_stray_links());
        assert!(declared.parents(0).is_empty());
        let all = ClassIds::with_link_endpoints(&s);
        assert_eq!(all.len(), 2);
        assert_eq!(
            all.parents(all.id("a").unwrap()),
            [all.id("ghost").unwrap()]
        );
    }
}
