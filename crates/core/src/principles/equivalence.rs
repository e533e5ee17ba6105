//! **Principle 1** — integration of equivalent classes.
//!
//! `if S₁•A ≡ S₂•B then insert(IS_AB, S)` with the attribute pairs handled
//! by case analysis on their assertion:
//!
//! * `≡ / ⊆ / ⊇` → one integrated attribute whose value set is the union;
//! * `∩` → three attributes `a_`, `b_`, `a_b` (left-only, right-only, and
//!   the AIF-combined common part);
//! * `∅` → both attributes kept separately;
//! * `α(z)` → a new attribute `z` whose values are `concatenation(a, b)`;
//! * `β` → the more specific attribute wins;
//! * unasserted attributes are accumulated (default strategy 2).
//!
//! Aggregation-function pairs: `ℵ` keeps both with their local constraints;
//! `≡ / ⊆ / ⊇ / ∩` (when the range classes are themselves related) merge
//! into one function whose cardinality constraint is the `lcs` of the local
//! ones (Principle 6); `∅` keeps both.

use crate::context::Integrator;
use crate::integrated::{AifKind, AttrOrigin, ISAgg, ISClass, SourceAttr, SourceRef};
use crate::{IntegrationError, Result};
use assertions::{AggCorr, AggOp, AttrCorr, AttrOp, ClassAssertion, PairRelation, SPath};
use oo_model::{AttrDef, AttrType, Schema};
use std::collections::BTreeSet;

/// Which side of an assertion a path belongs to.
fn side_of(p: &SPath, a: &ClassAssertion) -> Option<bool> {
    // true = left side of the assertion
    if p.schema == a.left_schema && a.left_classes.iter().any(|c| c == p.class_name()) {
        Some(true)
    } else if p.schema == a.right_schema && p.class_name() == a.right_class {
        Some(false)
    } else {
        None
    }
}

/// Orient an attribute correspondence so `.0` is the assertion's left side.
/// Returns the oriented (left, op, right).
fn orient_attr(corr: &AttrCorr, a: &ClassAssertion) -> Result<(SPath, AttrOp, SPath)> {
    match (side_of(&corr.left, a), side_of(&corr.right, a)) {
        (Some(true), Some(false)) => Ok((corr.left.clone(), corr.op.clone(), corr.right.clone())),
        (Some(false), Some(true)) => {
            let flipped = match &corr.op {
                AttrOp::Incl => AttrOp::InclRev,
                AttrOp::InclRev => AttrOp::Incl,
                // β flips: "x more specific than y" seen from y's side
                // cannot be expressed by swapping, so keep orientation by
                // swapping sides and remembering the specific one is now
                // on the right; handled by the caller through `MoreSpecificRight`.
                other => other.clone(),
            };
            Ok((corr.right.clone(), flipped, corr.left.clone()))
        }
        _ => Err(IntegrationError::BadAssertion(format!(
            "attribute correspondence `{corr}` does not match the assertion's classes"
        ))),
    }
}

fn attr_type(schema: &Schema, path: &SPath) -> Result<AttrType> {
    use oo_model::path::PathTarget;
    match path.path.resolve(schema) {
        Ok(PathTarget::AttributeValues(ty)) => Ok(ty),
        Ok(_) => Ok(AttrType::Str),
        Err(e) => Err(IntegrationError::BadAssertion(e.to_string())),
    }
}

fn src(p: &SPath) -> SourceAttr {
    SourceAttr::new(p.schema.clone(), p.class_name(), p.path.steps.join("."))
}

/// Push `attr` with `origin` into `class`, freshening the name on clash.
fn push_attr(class: &mut ISClass, mut attr: AttrDef, origin: AttrOrigin) {
    while class.attribute(&attr.name).is_some() {
        attr.name.push_str("_2");
    }
    class.attr_origins.insert(attr.name.clone(), origin);
    class.attrs.push(attr);
}

/// Merge the attributes of the two classes of `a` into `out`, following
/// the Principle 1 case analysis. Shared with Principle 3 (which applies
/// the same analysis to build `IS_AB`).
pub(crate) fn merge_attrs(
    ctx: &Integrator<'_>,
    a: &ClassAssertion,
    out: &mut ISClass,
) -> Result<()> {
    let (ls, rs) = (
        schema_by_name(ctx, &a.left_schema)?,
        schema_by_name(ctx, &a.right_schema)?,
    );
    let mut covered_left: BTreeSet<String> = BTreeSet::new();
    let mut covered_right: BTreeSet<String> = BTreeSet::new();
    for corr in &a.attr_corrs {
        let (l, op, r) = orient_attr(corr, a)?;
        // Only simple (class.attr) paths participate in type merging;
        // nested paths belong to derivation assertions.
        if let Some(m) = l.member() {
            covered_left.insert(m.to_string());
        }
        if let Some(m) = r.member() {
            covered_right.insert(m.to_string());
        }
        let lty = attr_type(ls, &l)?;
        let rty = attr_type(rs, &r)?;
        let lname = l.member().unwrap_or(l.class_name()).to_string();
        let rname = r.member().unwrap_or(r.class_name()).to_string();
        match op {
            AttrOp::Equiv | AttrOp::Incl | AttrOp::InclRev => {
                push_attr(
                    out,
                    AttrDef::new(lname, lty),
                    AttrOrigin::Union(vec![src(&l), src(&r)]),
                );
            }
            AttrOp::Intersect => {
                // a_, b_, a_b — the three-way split of Principle 1.
                let aif = match (&lty, &rty) {
                    (AttrType::Int | AttrType::Real, AttrType::Int | AttrType::Real) => {
                        AifKind::Average
                    }
                    _ => AifKind::LeftWins,
                };
                push_attr(
                    out,
                    AttrDef::new(format!("{lname}_"), lty.clone()),
                    AttrOrigin::IntersectionLeftOnly(src(&l), src(&r)),
                );
                push_attr(
                    out,
                    AttrDef::new(format!("{rname}_"), rty),
                    AttrOrigin::IntersectionRightOnly(src(&l), src(&r)),
                );
                push_attr(
                    out,
                    AttrDef::new(format!("{lname}_{rname}"), lty),
                    AttrOrigin::IntersectionCommon(src(&l), src(&r), aif),
                );
            }
            AttrOp::Disjoint => {
                push_attr(out, AttrDef::new(lname, lty), AttrOrigin::Copied(src(&l)));
                push_attr(out, AttrDef::new(rname, rty), AttrOrigin::Copied(src(&r)));
            }
            AttrOp::ComposedInto(z) => {
                push_attr(
                    out,
                    AttrDef::new(z, AttrType::Str),
                    AttrOrigin::Concat(src(&l), src(&r)),
                );
            }
            AttrOp::MoreSpecific => {
                // The left of the *written* correspondence is the specific
                // one; after orientation that is the side the original
                // `corr.left` named.
                let specific = &corr.left;
                let ty = attr_type(schema_by_name(ctx, &specific.schema)?, specific)?;
                push_attr(
                    out,
                    AttrDef::new(specific.member().unwrap_or(specific.class_name()), ty),
                    AttrOrigin::MoreSpecific(src(specific)),
                );
            }
        }
    }
    // Default strategy 2: unasserted attributes accumulate.
    let left_class = ls
        .class_named(a.left_class())
        .ok_or_else(|| IntegrationError::BadAssertion(format!("no class {}", a.left_class())))?;
    for attr in &left_class.ty.attributes {
        if !covered_left.contains(&attr.name) {
            push_attr(
                out,
                attr.clone(),
                AttrOrigin::Copied(SourceAttr::new(
                    a.left_schema.clone(),
                    a.left_class(),
                    attr.name.clone(),
                )),
            );
        }
    }
    let right_class = rs
        .class_named(&a.right_class)
        .ok_or_else(|| IntegrationError::BadAssertion(format!("no class {}", a.right_class)))?;
    for attr in &right_class.ty.attributes {
        if !covered_right.contains(&attr.name) {
            push_attr(
                out,
                attr.clone(),
                AttrOrigin::Copied(SourceAttr::new(
                    a.right_schema.clone(),
                    a.right_class.clone(),
                    attr.name.clone(),
                )),
            );
        }
    }
    Ok(())
}

fn orient_agg(corr: &AggCorr, a: &ClassAssertion) -> Result<(SPath, AggOp, SPath)> {
    match (side_of(&corr.left, a), side_of(&corr.right, a)) {
        (Some(true), Some(false)) => Ok((corr.left.clone(), corr.op, corr.right.clone())),
        (Some(false), Some(true)) => {
            let flipped = match corr.op {
                AggOp::Incl => AggOp::InclRev,
                AggOp::InclRev => AggOp::Incl,
                other => other,
            };
            Ok((corr.right.clone(), flipped, corr.left.clone()))
        }
        _ => Err(IntegrationError::BadAssertion(format!(
            "aggregation correspondence `{corr}` does not match the assertion's classes"
        ))),
    }
}

fn agg_def<'s>(schema: &'s Schema, path: &SPath) -> Result<&'s oo_model::AggDef> {
    let class = schema
        .class_named(path.class_name())
        .ok_or_else(|| IntegrationError::BadAssertion(format!("no class {}", path.class_name())))?;
    let member = path
        .member()
        .ok_or_else(|| IntegrationError::BadAssertion(format!("`{path}` names no member")))?;
    class.ty.aggregation(member).ok_or_else(|| {
        IntegrationError::BadAssertion(format!("`{path}` is not an aggregation function"))
    })
}

fn push_agg(class: &mut ISClass, mut agg: ISAgg) {
    while class.aggregation(&agg.name).is_some() {
        agg.name.push_str("_2");
    }
    class.aggs.push(agg);
}

/// Merge the aggregation functions of the two classes (Principle 1's
/// second switch + the Principle 6 `lcs` constraint resolution).
pub(crate) fn merge_aggs(
    ctx: &Integrator<'_>,
    a: &ClassAssertion,
    out: &mut ISClass,
) -> Result<()> {
    let (ls, rs) = (
        schema_by_name(ctx, &a.left_schema)?,
        schema_by_name(ctx, &a.right_schema)?,
    );
    let mut covered_left: BTreeSet<String> = BTreeSet::new();
    let mut covered_right: BTreeSet<String> = BTreeSet::new();
    for corr in &a.agg_corrs {
        let (l, op, r) = orient_agg(corr, a)?;
        let ldef = agg_def(ls, &l)?;
        let rdef = agg_def(rs, &r)?;
        covered_left.insert(ldef.name.clone());
        covered_right.insert(rdef.name.clone());
        match op {
            AggOp::Reverse | AggOp::Disjoint => {
                // ℵ and ∅: insert both with their local constraints.
                push_agg(
                    out,
                    ISAgg {
                        name: ldef.name.clone(),
                        range_source: SourceRef::new(a.left_schema.clone(), ldef.range.as_str()),
                        range: None,
                        cc: ldef.cc,
                    },
                );
                push_agg(
                    out,
                    ISAgg {
                        name: rdef.name.clone(),
                        range_source: SourceRef::new(a.right_schema.clone(), rdef.range.as_str()),
                        range: None,
                        cc: rdef.cc,
                    },
                );
            }
            AggOp::Equiv | AggOp::Incl | AggOp::InclRev | AggOp::Intersect => {
                // Merge when the range classes are themselves related
                // (C ≡ D or C ∩ D); constraint = lcs (Principle 6).
                let rel = ctx.assertions.relation(
                    &a.left_schema,
                    ldef.range.as_str(),
                    &a.right_schema,
                    rdef.range.as_str(),
                );
                let ranges_related =
                    matches!(rel, PairRelation::Equiv(_) | PairRelation::Intersect(_));
                if ranges_related {
                    push_agg(
                        out,
                        ISAgg {
                            name: ldef.name.clone(),
                            range_source: SourceRef::new(
                                a.left_schema.clone(),
                                ldef.range.as_str(),
                            ),
                            range: None,
                            cc: ldef.cc.lcs(&rdef.cc),
                        },
                    );
                } else {
                    // Ranges unrelated: keep both functions.
                    push_agg(
                        out,
                        ISAgg {
                            name: ldef.name.clone(),
                            range_source: SourceRef::new(
                                a.left_schema.clone(),
                                ldef.range.as_str(),
                            ),
                            range: None,
                            cc: ldef.cc,
                        },
                    );
                    push_agg(
                        out,
                        ISAgg {
                            name: rdef.name.clone(),
                            range_source: SourceRef::new(
                                a.right_schema.clone(),
                                rdef.range.as_str(),
                            ),
                            range: None,
                            cc: rdef.cc,
                        },
                    );
                }
            }
        }
    }
    // Default accumulation of unasserted aggregation functions.
    for (schema_name, schema, class_name, covered) in [
        (
            &a.left_schema,
            ls,
            a.left_class().to_string(),
            &covered_left,
        ),
        (&a.right_schema, rs, a.right_class.clone(), &covered_right),
    ] {
        let class = schema
            .class_named(&class_name)
            .ok_or_else(|| IntegrationError::BadAssertion(format!("no class {class_name}")))?;
        for agg in &class.ty.aggregations {
            if !covered.contains(&agg.name) {
                push_agg(
                    out,
                    ISAgg {
                        name: agg.name.clone(),
                        range_source: SourceRef::new(schema_name.clone(), agg.range.as_str()),
                        range: None,
                        cc: agg.cc,
                    },
                );
            }
        }
    }
    Ok(())
}

fn schema_by_name<'i>(ctx: &Integrator<'i>, name: &str) -> Result<&'i Schema> {
    if ctx.s1.name.as_str() == name {
        Ok(ctx.s1)
    } else if ctx.s2.name.as_str() == name {
        Ok(ctx.s2)
    } else {
        Err(IntegrationError::BadAssertion(format!(
            "assertion references unknown schema `{name}`"
        )))
    }
}

/// Absorb one side of an equivalence assertion into an already-integrated
/// class (equivalence chains: `A ≡ B` and `A ≡ C` make `C` join the class
/// that already merged `A` and `B`). The absorbed side's asserted
/// attributes extend the existing attributes' origins (their value sets
/// union in); unasserted attributes accumulate.
pub fn absorb(
    ctx: &mut Integrator<'_>,
    a: &ClassAssertion,
    existing: &str,
    absorb_left: bool,
) -> Result<()> {
    let (schema_name, class_name) = if absorb_left {
        (a.left_schema.clone(), a.left_class().to_string())
    } else {
        (a.right_schema.clone(), a.right_class.clone())
    };
    let schema = schema_by_name(ctx, &schema_name)?;
    let class = schema
        .class_named(&class_name)
        .ok_or_else(|| IntegrationError::BadAssertion(format!("no class {class_name}")))?
        .clone();
    ctx.output
        .add_provenance(&schema_name, &class_name, existing);
    let mut covered: BTreeSet<String> = BTreeSet::new();
    // Asserted correspondences: extend the matching integrated attribute.
    let corrs: Vec<(SPath, SPath)> = a
        .attr_corrs
        .iter()
        .filter_map(|corr| {
            let (l, op, r) = orient_attr(corr, a).ok()?;
            if !matches!(op, AttrOp::Equiv | AttrOp::Incl | AttrOp::InclRev) {
                return None;
            }
            Some(if absorb_left { (l, r) } else { (r, l) })
        })
        .collect();
    let is_class = ctx
        .output
        .class_mut(existing)
        .ok_or_else(|| IntegrationError::Internal(format!("IS class {existing} missing")))?;
    is_class
        .sources
        .push(SourceRef::new(schema_name.clone(), class_name.clone()));
    for (mine, other) in corrs {
        if let Some(m) = mine.member() {
            covered.insert(m.to_string());
        }
        let other_src = src(&other);
        let mine_src = src(&mine);
        for origin in is_class.attr_origins.values_mut() {
            if origin.sources().iter().any(|s| **s == other_src) {
                let mut leaves: Vec<SourceAttr> = origin.sources().into_iter().cloned().collect();
                if !leaves.contains(&mine_src) {
                    leaves.push(mine_src.clone());
                }
                *origin = AttrOrigin::Union(leaves);
                break;
            }
        }
    }
    // Unasserted attributes accumulate (default strategy 2).
    for attr in &class.ty.attributes {
        if !covered.contains(&attr.name) {
            push_attr(
                is_class,
                attr.clone(),
                AttrOrigin::Copied(SourceAttr::new(
                    schema_name.clone(),
                    class_name.clone(),
                    attr.name.clone(),
                )),
            );
        }
    }
    for agg in &class.ty.aggregations {
        push_agg(
            is_class,
            ISAgg {
                name: agg.name.clone(),
                range_source: SourceRef::new(schema_name.clone(), agg.range.as_str()),
                range: None,
                cc: agg.cc,
            },
        );
    }
    Ok(())
}

/// Apply Principle 1: build the merged class for an equivalence assertion
/// and insert it into the integrated schema. Returns the class name.
pub fn merge(ctx: &mut Integrator<'_>, a: &ClassAssertion) -> Result<String> {
    let name = ctx.output.fresh_name(a.left_class());
    let mut class = ISClass::new(name.clone());
    class.sources = vec![
        SourceRef::new(a.left_schema.clone(), a.left_class()),
        SourceRef::new(a.right_schema.clone(), a.right_class.clone()),
    ];
    merge_attrs(ctx, a, &mut class)?;
    merge_aggs(ctx, a, &mut class)?;
    ctx.output.insert_class(class);
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SchemaGraph;
    use assertions::{AssertionSet, ClassAssertion, ClassOp};
    use oo_model::{Cardinality, SchemaBuilder};

    fn schemas() -> (Schema, Schema) {
        let s1 = SchemaBuilder::new("S1")
            .class("person", |c| {
                c.attr("ssn#", AttrType::Str)
                    .attr("full_name", AttrType::Str)
                    .attr("city", AttrType::Str)
                    .set_attr("interests", AttrType::Str)
                    .attr("age", AttrType::Int)
            })
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .class("human", |c| {
                c.attr("ssn#", AttrType::Str)
                    .attr("name", AttrType::Str)
                    .attr("street-number", AttrType::Str)
                    .set_attr("hobby", AttrType::Str)
                    .attr("weight", AttrType::Real)
            })
            .build()
            .unwrap();
        (s1, s2)
    }

    /// Fig. 4(a) assertion, as in Example 6.
    fn fig_4a() -> ClassAssertion {
        use assertions::{AttrCorr, AttrOp, SPath};
        ClassAssertion::simple("S1", "person", ClassOp::Equiv, "S2", "human")
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "person", "ssn#"),
                AttrOp::Equiv,
                SPath::attr("S2", "human", "ssn#"),
            ))
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "person", "full_name"),
                AttrOp::Equiv,
                SPath::attr("S2", "human", "name"),
            ))
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "person", "city"),
                AttrOp::ComposedInto("address".into()),
                SPath::attr("S2", "human", "street-number"),
            ))
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "person", "interests"),
                AttrOp::InclRev,
                SPath::attr("S2", "human", "hobby"),
            ))
    }

    #[test]
    fn example_6_merged_type() {
        let (s1, s2) = schemas();
        let aset = AssertionSet::build([fig_4a()]).unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        let name = ctx.merge_equivalent(0).unwrap();
        assert_eq!(name, "person");
        let class = ctx.output.class("person").unwrap();
        // Example 6: <ssn#: string, name(full_name): string,
        //             interests: {string}, address: concat>
        assert_eq!(class.attribute("ssn#").unwrap().ty, AttrType::Str);
        assert!(class.attribute("full_name").is_some());
        assert_eq!(
            class.attribute("interests").unwrap().ty,
            AttrType::Set(Box::new(AttrType::Str))
        );
        assert!(class.attribute("address").is_some());
        assert!(matches!(
            class.attr_origins.get("address"),
            Some(AttrOrigin::Concat(_, _))
        ));
        // city/street-number were consumed by α(address)
        assert!(class.attribute("city").is_none());
        assert!(class.attribute("street-number").is_none());
        // defaults accumulated
        assert!(class.attribute("age").is_some());
        assert!(class.attribute("weight").is_some());
        // provenance registered for both sources
        assert_eq!(ctx.output.is("S1", "person"), Some("person"));
        assert_eq!(ctx.output.is("S2", "human"), Some("person"));
    }

    #[test]
    fn merge_is_idempotent() {
        let (s1, s2) = schemas();
        let aset = AssertionSet::build([fig_4a()]).unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        let n1 = ctx.merge_equivalent(0).unwrap();
        let n2 = ctx.merge_equivalent(0).unwrap();
        assert_eq!(n1, n2);
        assert_eq!(ctx.output.len(), 1);
        assert_eq!(ctx.stats.classes_merged, 1);
    }

    #[test]
    fn intersect_attrs_make_three_way_split() {
        use assertions::{AttrCorr, AttrOp, SPath};
        let s1 = SchemaBuilder::new("S1")
            .class("faculty", |c| c.attr("income", AttrType::Int))
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .class("student", |c| c.attr("study_support", AttrType::Int))
            .build()
            .unwrap();
        let a = ClassAssertion::simple("S1", "faculty", ClassOp::Equiv, "S2", "student").attr_corr(
            AttrCorr::new(
                SPath::attr("S1", "faculty", "income"),
                AttrOp::Intersect,
                SPath::attr("S2", "student", "study_support"),
            ),
        );
        let aset = AssertionSet::build([a]).unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.merge_equivalent(0).unwrap();
        let class = ctx.output.class("faculty").unwrap();
        assert!(class.attribute("income_").is_some());
        assert!(class.attribute("study_support_").is_some());
        let common = class.attr_origins.get("income_study_support").unwrap();
        assert!(matches!(
            common,
            AttrOrigin::IntersectionCommon(_, _, AifKind::Average)
        ));
    }

    #[test]
    fn agg_merge_uses_lcs_when_ranges_equivalent() {
        use assertions::{AggCorr, AggOp, SPath};
        let s1 = SchemaBuilder::new("S1")
            .empty_class("dept1")
            .class("faculty", |c| {
                c.agg("work_in", "dept1", Cardinality::ONE_ONE)
            })
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("dept2")
            .class("student", |c| c.agg("work_in", "dept2", Cardinality::M_ONE))
            .build()
            .unwrap();
        let a = ClassAssertion::simple("S1", "faculty", ClassOp::Equiv, "S2", "student").agg_corr(
            AggCorr::new(
                SPath::attr("S1", "faculty", "work_in"),
                AggOp::Equiv,
                SPath::attr("S2", "student", "work_in"),
            ),
        );
        let ranges = ClassAssertion::simple("S1", "dept1", ClassOp::Equiv, "S2", "dept2");
        let aset = AssertionSet::build([a, ranges]).unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.merge_equivalent(0).unwrap();
        let class = ctx.output.class("faculty").unwrap();
        // lcs([1:1], [m:1]) = [m:1]
        assert_eq!(class.aggregation("work_in").unwrap().cc, Cardinality::M_ONE);
        assert_eq!(class.aggs.len(), 1);
    }

    #[test]
    fn agg_with_unrelated_ranges_keeps_both() {
        use assertions::{AggCorr, AggOp, SPath};
        let s1 = SchemaBuilder::new("S1")
            .empty_class("dept1")
            .class("a", |c| c.agg("f", "dept1", Cardinality::ONE_ONE))
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("dept2")
            .class("b", |c| c.agg("g", "dept2", Cardinality::M_ONE))
            .build()
            .unwrap();
        let a =
            ClassAssertion::simple("S1", "a", ClassOp::Equiv, "S2", "b").agg_corr(AggCorr::new(
                SPath::attr("S1", "a", "f"),
                AggOp::Equiv,
                SPath::attr("S2", "b", "g"),
            ));
        let aset = AssertionSet::build([a]).unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.merge_equivalent(0).unwrap();
        let class = ctx.output.class("a").unwrap();
        assert_eq!(class.aggs.len(), 2);
    }

    #[test]
    fn reverse_agg_keeps_both_with_local_ccs() {
        use assertions::{AggCorr, AggOp, SPath};
        let s1 = SchemaBuilder::new("S1")
            .empty_class("woman1")
            .class("man", |c| c.agg("spouse", "woman1", Cardinality::ONE_ONE))
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("man2")
            .class("woman", |c| c.agg("spouse", "man2", Cardinality::ONE_ONE))
            .build()
            .unwrap();
        let a = ClassAssertion::simple("S1", "man", ClassOp::Equiv, "S2", "woman").agg_corr(
            AggCorr::new(
                SPath::attr("S1", "man", "spouse"),
                AggOp::Reverse,
                SPath::attr("S2", "woman", "spouse"),
            ),
        );
        let aset = AssertionSet::build([a]).unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.merge_equivalent(0).unwrap();
        let class = ctx.output.class("man").unwrap();
        // both kept; second freshened to spouse_2
        assert!(class.aggregation("spouse").is_some());
        assert!(class.aggregation("spouse_2").is_some());
    }

    #[test]
    fn more_specific_keeps_the_specific_attribute() {
        use assertions::{AttrCorr, AttrOp, SPath};
        let s1 = SchemaBuilder::new("S1")
            .class("restaurant-1", |c| c.attr("category", AttrType::Str))
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .class("restaurant-2", |c| c.attr("cuisine", AttrType::Str))
            .build()
            .unwrap();
        // cuisine β category, written from S2's side.
        let a = ClassAssertion::simple("S1", "restaurant-1", ClassOp::Equiv, "S2", "restaurant-2")
            .attr_corr(AttrCorr::new(
                SPath::attr("S2", "restaurant-2", "cuisine"),
                AttrOp::MoreSpecific,
                SPath::attr("S1", "restaurant-1", "category"),
            ));
        let aset = AssertionSet::build([a]).unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.merge_equivalent(0).unwrap();
        let class = ctx.output.class("restaurant-1").unwrap();
        assert!(class.attribute("cuisine").is_some());
        assert!(class.attribute("category").is_none());
    }
}
