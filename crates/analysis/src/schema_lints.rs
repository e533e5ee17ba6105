//! Schema lints (FD03xx).
//!
//! * **FD0301** — is-a cycles. `Schema::add_isa` refuses to create them,
//!   but schemas arriving through [`oo_model::parse_schema_lenient`] (or
//!   assembled with `add_isa_unchecked`) can carry them; integration's
//!   subclass walks would not terminate meaningfully.
//! * **FD0302** — dead classes: no attributes, no aggregations, no is-a
//!   links in either direction and never the range of an aggregation —
//!   nothing relates the class to the rest of the schema.
//! * **FD0303** — aggregation functions whose target class has an empty
//!   extent (requires an [`InstanceStore`]): every application of the
//!   function is necessarily empty, so either the data is missing or the
//!   link is vestigial.

use crate::diag::{Code, Diagnostic, Report};
use oo_model::{ClassId, ClassIds, ClassName, InstanceStore, Schema};

/// Structural lints that need only the schema.
pub fn analyze_schema(schema: &Schema) -> Report {
    analyze_schema_ids(&ClassIds::new(schema))
}

/// [`analyze_schema`] over a prebuilt id view of the schema (the
/// integration gate reuses the view its traversal runs on). A schema with
/// is-a links to undeclared classes is linted over a view that numbers
/// those names too, so no link is left out.
pub fn analyze_schema_ids(ids: &ClassIds<'_>) -> Report {
    if ids.has_stray_links() {
        return lint(&ClassIds::with_link_endpoints(ids.schema));
    }
    lint(ids)
}

fn lint(ids: &ClassIds<'_>) -> Report {
    let mut report = Report::new();
    isa_cycles(ids, &mut report);
    dead_classes(ids, &mut report);
    report
}

/// The nodes from which an is-a cycle is reachable along parent links,
/// or `None` when the hierarchy is acyclic: Kahn's peel from the
/// parentless nodes leaves exactly those nodes. Linear in the links.
fn cycle_reaching(ids: &ClassIds<'_>) -> Option<Vec<bool>> {
    let n = ids.len() as ClassId;
    let mut open_parents: Vec<usize> = (0..n).map(|c| ids.parents(c).len()).collect();
    let mut ready: Vec<ClassId> = (0..n).filter(|&c| open_parents[c as usize] == 0).collect();
    let mut peeled = 0;
    while let Some(c) = ready.pop() {
        peeled += 1;
        for &kid in ids.children(c) {
            open_parents[kid as usize] -= 1;
            if open_parents[kid as usize] == 0 {
                ready.push(kid);
            }
        }
    }
    (peeled < n).then(|| open_parents.into_iter().map(|open| open > 0).collect())
}

/// FD0301: is-a cycles. An acyclic hierarchy costs one linear peel. On a
/// cyclic one, a path-tracking walk from each node in name order words
/// the reports; it only enters nodes that reach a cycle, which leaves the
/// reports as a walk over the whole hierarchy would find them.
fn isa_cycles(ids: &ClassIds<'_>, report: &mut Report) {
    let Some(live) = cycle_reaching(ids) else {
        return;
    };
    let sname = ids.schema.name.as_str();
    let n = ids.len() as ClassId;
    let mut done = vec![false; n as usize];
    let mut in_reported_cycle = vec![false; n as usize];
    for start in (0..n).filter(|&c| live[c as usize] && !ids.parents(c).is_empty()) {
        if done[start as usize] {
            continue;
        }
        let mut stack: Vec<(ClassId, Vec<ClassId>)> = vec![(start, vec![start])];
        while let Some((at, path)) = stack.pop() {
            for &next in ids.parents(at).iter().filter(|&&p| live[p as usize]) {
                if let Some(pos) = path.iter().position(|&p| p == next) {
                    let cycle = &path[pos..];
                    // Report each cycle once (any member already reported
                    // suppresses re-discovery from another start).
                    if cycle.iter().any(|&c| in_reported_cycle[c as usize]) {
                        continue;
                    }
                    for &c in cycle {
                        in_reported_cycle[c as usize] = true;
                    }
                    let name = |c: ClassId| ids.name(c).unwrap_or_default();
                    let names: Vec<&str> = cycle.iter().chain([&next]).map(|&c| name(c)).collect();
                    report.push(
                        Diagnostic::new(
                            Code::IsaCycle,
                            format!("is-a cycle in schema `{sname}`: {}", names.join(" is_a ")),
                        )
                        .with_subject(format!("{sname}•{}", name(cycle[0])))
                        .with_note(
                            "subclass/superclass walks over this hierarchy do not terminate"
                                .to_string(),
                        ),
                    );
                } else {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
            done[at as usize] = true;
        }
    }
}

/// FD0302: dead classes.
fn dead_classes(ids: &ClassIds<'_>, report: &mut Report) {
    let schema = ids.schema;
    let sname = schema.name.as_str();
    let declared_only = ids.len() == schema.len();
    let mut dead: Vec<&str> = Vec::new();
    for (i, class) in schema.classes().enumerate() {
        let name = class.name.as_str();
        if !class.ty.attributes.is_empty() || !class.ty.aggregations.is_empty() {
            continue;
        }
        let id = match declared_only {
            true => i as ClassId,
            false => ids.id(name).expect("declared classes have ids"),
        };
        if ids.parents(id).is_empty() && ids.children(id).is_empty() {
            dead.push(name);
        }
    }
    if dead.is_empty() {
        return;
    }
    let mut agg_targets: Vec<&str> = schema
        .classes()
        .flat_map(|c| c.ty.aggregations.iter().map(|agg| agg.range.as_str()))
        .collect();
    agg_targets.sort_unstable();
    for name in dead {
        if agg_targets.binary_search(&name).is_ok() {
            continue;
        }
        report.push(
            Diagnostic::new(
                Code::DeadClass,
                format!("class `{name}` in schema `{sname}` is dead"),
            )
            .with_subject(format!("{sname}•{name}"))
            .with_note(
                "no members, no is-a links, and never the range of an aggregation".to_string(),
            ),
        );
    }
}

/// Schema lints plus extent-aware checks against an instance store.
pub fn analyze_schema_with_store(schema: &Schema, store: &InstanceStore) -> Report {
    let mut report = analyze_schema(schema);
    report.merge(analyze_agg_population(schema, store));
    report
}

/// FD0303 only — exposed separately so federation can aggregate stores
/// across components before deciding a target is unpopulated.
pub fn analyze_agg_population(schema: &Schema, store: &InstanceStore) -> Report {
    let mut report = Report::new();
    let sname = schema.name.as_str();
    for class in schema.classes() {
        for agg in &class.ty.aggregations {
            let range = ClassName::new(agg.range.as_str());
            if !schema.contains(&range) {
                continue; // missing range class is a schema validation error
            }
            if store.extent(schema, &range).is_empty() {
                report.push(
                    Diagnostic::new(
                        Code::EmptyAggTarget,
                        format!(
                            "aggregation `{}.{}` targets class `{}` whose extent is empty",
                            class.name.as_str(),
                            agg.name,
                            agg.range.as_str()
                        ),
                    )
                    .with_subject(format!("{sname}•{}", class.name.as_str()))
                    .with_note("every application of this function yields ∅".to_string()),
                );
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use oo_model::{
        parse_schema_lenient, AggDef, AttrDef, AttrType, Cardinality, Class, ClassType,
    };

    fn codes(report: &Report) -> Vec<&'static str> {
        report.sorted().iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn healthy_schema_is_clean() {
        let mut s = Schema::new("S");
        let mut person = ClassType::new();
        person
            .push_attribute(AttrDef::new("name", AttrType::Str))
            .unwrap();
        s.add_class(Class::new("person", person)).unwrap();
        s.add_class(Class::new("student", ClassType::new()))
            .unwrap();
        s.add_isa("student", "person").unwrap();
        let r = analyze_schema(&s);
        assert!(r.is_empty(), "{}", r.render_human());
    }

    #[test]
    fn isa_cycle_detected_once() {
        let s = parse_schema_lenient(
            "schema S { class a <> class b <> class c <> is_a(a, b) is_a(b, c) is_a(c, a) }",
        )
        .unwrap();
        let r = analyze_schema(&s);
        assert_eq!(codes(&r), vec!["FD0301"]);
        let d = r.iter().next().unwrap();
        assert!(d.message.contains("is_a"), "{}", d.message);
        assert!(r.has_deny());
    }

    #[test]
    fn dead_class_warned() {
        let mut s = Schema::new("S");
        let mut person = ClassType::new();
        person
            .push_attribute(AttrDef::new("name", AttrType::Str))
            .unwrap();
        s.add_class(Class::new("person", person)).unwrap();
        s.add_class(Class::new("limbo", ClassType::new())).unwrap();
        let r = analyze_schema(&s);
        assert_eq!(codes(&r), vec!["FD0302"]);
        assert!(r.iter().next().unwrap().message.contains("`limbo`"));
        assert!(!r.has_deny());
    }

    #[test]
    fn agg_target_membership_keeps_class_alive() {
        let mut s = Schema::new("S");
        s.add_class(Class::new("dept", ClassType::new())).unwrap();
        let mut empl = ClassType::new();
        empl.push_aggregation(AggDef::new("works_in", "dept", Cardinality::M_ONE))
            .unwrap();
        s.add_class(Class::new("empl", empl)).unwrap();
        // `dept` has no members/links of its own but is an agg range.
        let r = analyze_schema(&s);
        assert!(r.is_empty(), "{}", r.render_human());
    }

    /// `k` stacked diamonds: `t{i}` above `l{i}` and `r{i}`, both above
    /// `t{i+1}` — 3k + 1 classes and 2^k paths from bottom to top.
    fn diamond_ladder(k: usize) -> Schema {
        let mut s = Schema::new("DL");
        let names = (0..=k)
            .map(|i| format!("t{i}"))
            .chain((0..k).flat_map(|i| [format!("l{i}"), format!("r{i}")]));
        for name in names {
            s.add_class(Class::new(name.as_str(), ClassType::new()))
                .unwrap();
        }
        for i in 0..k {
            let (t, l, r, next) = (
                format!("t{i}"),
                format!("l{i}"),
                format!("r{i}"),
                format!("t{}", i + 1),
            );
            for (sub, sup) in [(&l, &t), (&r, &t), (&next, &l), (&next, &r)] {
                s.add_isa(sub.as_str(), sup.as_str()).unwrap();
            }
        }
        s
    }

    /// A 48-level ladder has 2^48 paths; the lint visits each class once.
    #[test]
    fn diamond_ladder_lints_in_linear_time() {
        let mut s = diamond_ladder(48);
        assert_eq!(s.len(), 145);
        let r = analyze_schema(&s);
        assert!(r.is_empty(), "{}", r.render_human());
        // A cycle beside the ladder is reported without walking it.
        for c in ["p", "q"] {
            s.add_class(Class::new(c, ClassType::new())).unwrap();
        }
        s.add_isa_unchecked("p", "q");
        s.add_isa_unchecked("q", "p");
        let r = analyze_schema(&s);
        assert_eq!(codes(&r), vec!["FD0301"]);
        assert!(r
            .iter()
            .next()
            .unwrap()
            .message
            .ends_with("p is_a q is_a p"));
    }

    /// FD0301/FD0302 as the lint was written before class ids: a
    /// path-tracking walk from every class with a superclass, over
    /// string-keyed maps.
    fn string_keyed_lints(schema: &Schema) -> Report {
        use std::collections::{BTreeMap, BTreeSet};
        let mut report = Report::new();
        let sname = schema.name.as_str();
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (sub, sup) in schema.isa_links() {
            adj.entry(sub.as_str()).or_default().push(sup.as_str());
        }
        let mut done: BTreeSet<&str> = BTreeSet::new();
        let mut in_reported_cycle: BTreeSet<String> = BTreeSet::new();
        for &start in adj.keys() {
            if done.contains(start) {
                continue;
            }
            let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, vec![start])];
            while let Some((at, path)) = stack.pop() {
                for &next in adj.get(at).map(|v| v.as_slice()).unwrap_or(&[]) {
                    if let Some(pos) = path.iter().position(|&p| p == next) {
                        let cycle = &path[pos..];
                        if cycle.iter().any(|c| in_reported_cycle.contains(*c)) {
                            continue;
                        }
                        for c in cycle {
                            in_reported_cycle.insert((*c).to_string());
                        }
                        let mut names: Vec<&str> = cycle.to_vec();
                        names.push(next);
                        report.push(
                            Diagnostic::new(
                                Code::IsaCycle,
                                format!("is-a cycle in schema `{sname}`: {}", names.join(" is_a ")),
                            )
                            .with_subject(format!("{sname}•{}", cycle[0]))
                            .with_note(
                                "subclass/superclass walks over this hierarchy do not terminate"
                                    .to_string(),
                            ),
                        );
                    } else {
                        let mut p = path.clone();
                        p.push(next);
                        stack.push((next, p));
                    }
                }
                done.insert(at);
            }
        }
        let mut isa_touched: BTreeSet<&str> = BTreeSet::new();
        for (sub, sup) in schema.isa_links() {
            isa_touched.insert(sub.as_str());
            isa_touched.insert(sup.as_str());
        }
        let mut agg_targets: BTreeSet<&str> = BTreeSet::new();
        for class in schema.classes() {
            for agg in &class.ty.aggregations {
                agg_targets.insert(agg.range.as_str());
            }
        }
        for class in schema.classes() {
            let name = class.name.as_str();
            if class.ty.attributes.is_empty()
                && class.ty.aggregations.is_empty()
                && !isa_touched.contains(name)
                && !agg_targets.contains(name)
            {
                report.push(
                    Diagnostic::new(
                        Code::DeadClass,
                        format!("class `{name}` in schema `{sname}` is dead"),
                    )
                    .with_subject(format!("{sname}•{name}"))
                    .with_note(
                        "no members, no is-a links, and never the range of an aggregation"
                            .to_string(),
                    ),
                );
            }
        }
        report
    }

    /// The id lint reports what the string-keyed walk reports, in the
    /// same order, on random small schemas with and without cycles, stray
    /// links to undeclared classes and dead classes.
    #[test]
    fn id_lints_match_the_string_keyed_walk() {
        let mut state = 0x5851_f42d_4c95_7f2du64;
        let mut draw = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut cyclic = 0;
        for case in 0..3000 {
            let n = 1 + draw(9);
            let mut s = Schema::new("S");
            for i in 0..n {
                let mut ty = ClassType::new();
                if draw(3) == 0 {
                    ty.push_attribute(AttrDef::new("v", AttrType::Str)).unwrap();
                }
                if draw(6) == 0 {
                    let range = format!("c{}", draw(n + 1));
                    ty.push_aggregation(AggDef::new("g", range.as_str(), Cardinality::M_ONE))
                        .unwrap();
                }
                s.add_class(Class::new(format!("c{i}").as_str(), ty))
                    .unwrap();
            }
            // Links go upwards in acyclic cases; every third case may
            // point anywhere, undeclared `c{n}` included.
            for _ in 0..draw(2 * n + 1) {
                let (a, b) = (draw(n), draw(n + 1));
                if case % 3 == 0 || a > b {
                    s.add_isa_unchecked(format!("c{a}").as_str(), format!("c{b}").as_str());
                }
            }
            let want = string_keyed_lints(&s);
            let got = analyze_schema(&s);
            assert_eq!(got.render_json(), want.render_json(), "case {case}: {s:?}");
            cyclic += want.has_deny() as usize;
        }
        assert!(cyclic > 100, "only {cyclic} cyclic cases");
    }

    #[test]
    fn empty_agg_target_flagged_against_store() {
        let mut s = Schema::new("S");
        s.add_class(Class::new("dept", ClassType::new())).unwrap();
        let mut empl = ClassType::new();
        empl.push_attribute(AttrDef::new("name", AttrType::Str))
            .unwrap();
        empl.push_aggregation(AggDef::new("works_in", "dept", Cardinality::M_ONE))
            .unwrap();
        s.add_class(Class::new("empl", empl)).unwrap();

        let mut store = InstanceStore::new();
        store
            .create(&s, "empl", |o| o.with_attr("name", "ada"))
            .unwrap();
        let r = analyze_schema_with_store(&s, &store);
        assert_eq!(codes(&r), vec!["FD0303"]);
        let d = r.iter().next().unwrap();
        assert!(d.message.contains("works_in") && d.message.contains("`dept`"));

        // Populating the target clears the lint.
        let mut store2 = store.clone();
        store2.create(&s, "dept", |o| o).unwrap();
        let r2 = analyze_schema_with_store(&s, &store2);
        assert!(r2.is_empty(), "{}", r2.render_human());
    }
}
