//! The traversal view of a schema (§6.1): a graph of classes connected by
//! is-a links, traversed top-down, with a **virtual start node** drawn above
//! all parentless classes so every schema has a single entry point.
//!
//! The graph is built once per integration run, in one pass over the
//! schema's is-a links. Classes get dense ids in name order, so an id list
//! sorted by id is sorted by name; children, parents and roots are id
//! lists, and on a forest preorder intervals answer subtree membership in
//! O(1). Nothing in the traversal allocates a class name.

use oo_model::{ClassName, Schema};
use std::borrow::Cow;

/// A node of the traversal graph: a class's dense id (its rank in name
/// order), or [`SchemaGraph::start`] for the virtual start node (§6.1: "we
/// construct a virtual one … and for each of those nodes which have no
/// parent nodes … draw a meaningless edge from it to the virtual start
/// node").
pub type ClassId = u32;

/// Compressed per-node lists: row `i` is `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Rows<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Rows<T> {
    /// `rows` rows from `(row, item)` entries; each row keeps the entries'
    /// order.
    pub(crate) fn new(rows: usize, entries: impl Iterator<Item = (ClassId, T)>) -> Self {
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

    pub(crate) fn row(&self, r: ClassId) -> &[T] {
        let r = r as usize;
        &self.items[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }
}

/// A schema viewed as a rooted traversal graph.
#[derive(Debug, Clone)]
pub struct SchemaGraph<'a> {
    pub schema: &'a Schema,
    /// Class names by id (name order).
    names: Vec<&'a ClassName>,
    /// Direct subclasses by id, ascending; the start node's row holds the
    /// roots.
    children: Rows<ClassId>,
    /// Direct superclasses by id, ascending.
    parents: Rows<ClassId>,
    /// Preorder intervals, when every class has at most one parent.
    intervals: Option<Preorder>,
}

/// A forest's preorder from the start node.
#[derive(Debug, Clone)]
struct Preorder {
    /// Per node, the `[enter, exit)` positions of its subtree in `order`.
    spans: Vec<(u32, u32)>,
    order: Vec<ClassId>,
}

impl<'a> SchemaGraph<'a> {
    pub fn new(schema: &'a Schema) -> Self {
        let names: Vec<&ClassName> = schema.class_names().collect();
        let n = names.len();
        let start = n as ClassId;
        let id = |c: &ClassName| names.binary_search(&c).ok().map(|i| i as ClassId);
        // `isa_links` is sorted by (sub, sup), ids follow name order, and
        // `Rows` keeps each row's entry order: every row comes out
        // ascending.
        let links: Vec<(ClassId, ClassId)> = schema
            .isa_links()
            .filter_map(|(sub, sup)| Some((id(sub)?, id(sup)?)))
            .collect();
        let parents = Rows::new(n, links.iter().copied());
        let roots: Vec<ClassId> = (0..start).filter(|&c| parents.row(c).is_empty()).collect();
        let children = Rows::new(
            n + 1,
            links
                .iter()
                .map(|&(sub, sup)| (sup, sub))
                .chain(roots.iter().map(|&r| (start, r))),
        );
        let mut graph = SchemaGraph {
            schema,
            names,
            children,
            parents,
            intervals: None,
        };
        if (0..start).all(|c| graph.parents.row(c).len() <= 1) {
            graph.intervals = Some(graph.preorder());
        }
        graph
    }

    /// Preorder intervals and order of a forest, from the start node.
    fn preorder(&self) -> Preorder {
        let mut spans = vec![(0, 0); self.names.len() + 1];
        let mut order = Vec::with_capacity(self.names.len() + 1);
        // (node, next child index); a node's exit is set when it pops.
        let mut stack = vec![(self.start(), 0usize)];
        spans[self.start() as usize].0 = 0;
        order.push(self.start());
        while let Some(top) = stack.last_mut() {
            let (node, next) = *top;
            match self.children(node).get(next) {
                Some(&kid) => {
                    top.1 += 1;
                    spans[kid as usize].0 = order.len() as u32;
                    order.push(kid);
                    stack.push((kid, 0));
                }
                None => {
                    spans[node as usize].1 = order.len() as u32;
                    stack.pop();
                }
            }
        }
        Preorder { spans, order }
    }

    /// The start node (always virtual; real roots hang below it).
    pub fn start(&self) -> ClassId {
        self.names.len() as ClassId
    }

    /// The id of a class name.
    pub fn id(&self, name: &str) -> Option<ClassId> {
        self.names
            .binary_search_by(|c| c.as_str().cmp(name))
            .ok()
            .map(|i| i as ClassId)
    }

    /// The class name of a node; `None` for the start node.
    pub fn name(&self, node: ClassId) -> Option<&'a str> {
        self.names.get(node as usize).map(|c| c.as_str())
    }

    /// The class name of a node, or `⟨start⟩`.
    pub fn display(&self, node: ClassId) -> &'a str {
        self.name(node).unwrap_or("⟨start⟩")
    }

    /// Child nodes: for the start node, the schema's roots; for a class,
    /// its direct subclasses. Name-sorted.
    pub fn children(&self, node: ClassId) -> &[ClassId] {
        self.children.row(node)
    }

    /// Sibling nodes of a class (children of its parents, or the other
    /// roots when the class is a root), name-sorted.
    pub fn siblings(&self, node: ClassId) -> Vec<ClassId> {
        if node == self.start() {
            return Vec::new();
        }
        let parents = self.parents.row(node);
        let mut out: Vec<ClassId> = match parents {
            [] => self.children(self.start()).to_vec(),
            [p] => self.children(*p).to_vec(),
            _ => {
                let mut all: Vec<ClassId> = parents
                    .iter()
                    .flat_map(|&p| self.children(p))
                    .copied()
                    .collect();
                all.sort_unstable();
                all.dedup();
                all
            }
        };
        out.retain(|&s| s != node);
        out
    }

    /// Is `node` equal to `top` or below it?
    pub fn reaches(&self, top: ClassId, node: ClassId) -> bool {
        if top == self.start() || top == node {
            return true;
        }
        if let Some(pre) = &self.intervals {
            let (enter, exit) = pre.spans[top as usize];
            let at = pre.spans[node as usize].0;
            return enter <= at && at < exit;
        }
        // Multiple inheritance: search upwards from `node`.
        let mut stack = vec![node];
        let mut seen = vec![node];
        while let Some(n) = stack.pop() {
            for &p in self.parents.row(n) {
                if p == top {
                    return true;
                }
                if !seen.contains(&p) {
                    seen.push(p);
                    stack.push(p);
                }
            }
        }
        false
    }

    /// `node` and every node below it, each once: a slice of the preorder
    /// on a forest, a fresh walk otherwise.
    pub fn subtree(&self, node: ClassId) -> Cow<'_, [ClassId]> {
        if let Some(pre) = &self.intervals {
            let (enter, exit) = pre.spans[node as usize];
            return Cow::Borrowed(&pre.order[enter as usize..exit as usize]);
        }
        let mut out = vec![node];
        let mut i = 0;
        while i < out.len() {
            for &k in self.children(out[i]) {
                if !out.contains(&k) {
                    out.push(k);
                }
            }
            i += 1;
        }
        Cow::Owned(out)
    }

    /// The breadth-first unfolding below `node`: every path from `node`
    /// yields one entry, so under multiple inheritance a class appears once
    /// per path. On a forest this is the subtree in breadth-first order.
    pub fn unfolding(&self, node: ClassId) -> Vec<ClassId> {
        let mut out = vec![node];
        let mut i = 0;
        while i < out.len() {
            let kids = self.children(out[i]);
            out.extend_from_slice(kids);
            i += 1;
        }
        out
    }

    /// Number of class nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oo_model::SchemaBuilder;

    fn schema() -> Schema {
        SchemaBuilder::new("S2")
            .empty_class("human")
            .empty_class("employee")
            .empty_class("student")
            .empty_class("faculty")
            .empty_class("island") // disconnected root
            .isa("employee", "human")
            .isa("student", "human")
            .isa("faculty", "employee")
            .build()
            .unwrap()
    }

    fn names(g: &SchemaGraph<'_>, ids: &[ClassId]) -> Vec<String> {
        ids.iter().map(|&i| g.display(i).to_string()).collect()
    }

    #[test]
    fn start_children_are_roots() {
        let s = schema();
        let g = SchemaGraph::new(&s);
        assert_eq!(names(&g, g.children(g.start())), ["human", "island"]);
    }

    #[test]
    fn class_children_sorted() {
        let s = schema();
        let g = SchemaGraph::new(&s);
        let human = g.id("human").unwrap();
        assert_eq!(names(&g, g.children(human)), ["employee", "student"]);
        assert!(g.children(g.id("faculty").unwrap()).is_empty());
    }

    #[test]
    fn siblings() {
        let s = schema();
        let g = SchemaGraph::new(&s);
        assert_eq!(
            names(&g, &g.siblings(g.id("employee").unwrap())),
            ["student"]
        );
        // roots are siblings of each other
        assert_eq!(names(&g, &g.siblings(g.id("human").unwrap())), ["island"]);
        assert!(g.siblings(g.start()).is_empty());
    }

    #[test]
    fn node_display() {
        let s = schema();
        let g = SchemaGraph::new(&s);
        assert_eq!(g.display(g.start()), "⟨start⟩");
        assert_eq!(g.display(g.id("faculty").unwrap()), "faculty");
        assert_eq!(g.name(g.start()), None);
        assert_eq!(g.id("ghost"), None);
    }

    #[test]
    fn subtree_membership_matches_the_schema() {
        let s = schema();
        let g = SchemaGraph::new(&s);
        for top in s.class_names() {
            let t = g.id(top.as_str()).unwrap();
            let below = s.descendants(top);
            let mut sub = names(&g, &g.subtree(t));
            sub.sort();
            let mut want: Vec<String> = below.iter().map(|c| c.to_string()).collect();
            want.push(top.to_string());
            want.sort();
            assert_eq!(sub, want, "{top}");
            for c in s.class_names() {
                let member = c == top || below.contains(c);
                assert_eq!(g.reaches(t, g.id(c.as_str()).unwrap()), member);
            }
        }
        assert_eq!(
            names(&g, &g.unfolding(g.id("human").unwrap())),
            ["human", "employee", "student", "faculty"]
        );
    }

    #[test]
    fn multiple_inheritance_unfolds_per_path() {
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
        let g = SchemaGraph::new(&s);
        let (top, l, r, both) = (
            g.id("top").unwrap(),
            g.id("l").unwrap(),
            g.id("r").unwrap(),
            g.id("both").unwrap(),
        );
        assert_eq!(
            names(&g, &g.unfolding(top)),
            ["top", "l", "r", "both", "both"]
        );
        assert_eq!(g.subtree(top).len(), 4);
        assert!(g.reaches(r, both) && g.reaches(top, both) && !g.reaches(l, r));
        assert_eq!(names(&g, &g.siblings(both)), Vec::<String>::new());
        assert_eq!(names(&g, &g.siblings(l)), ["r"]);
    }
}
