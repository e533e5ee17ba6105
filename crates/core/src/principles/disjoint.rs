//! **Principle 4** — integration of disjoint assertions.
//!
//! `S₁•A ∅ S₂•B` is meaningful when superclasses `A'`, `B'` exist with
//! `IS(S₁•A') ≡ IS(S₂•B')`. For a family of disjoint assertions
//! `S₁•Aᵢ ∅ S₂•Bⱼ` under such merged parents, the paper constructs
//!
//! ```text
//! <x: IS(S₂•B₁)> ∨ … ∨ <x: IS(S₂•Bₘ)> ⇐ <x: IS(S₁•A)>, ¬<x: IS(S₁•A₁)>, …, ¬<x: IS(S₁•Aₙ)>
//! ```
//!
//! (definite when m = 1, disjunctive/representational otherwise), plus the
//! reverse-aggregation-function rules when a `ℵ` correspondence is declared
//! (`man•spouse ℵ woman•spouse`):
//!
//! ```text
//! <x: IS(S₂•B) | IS_fg: y> ⇐ <y: IS(S₁•A) | IS_fg: x>
//! <y: IS(S₁•A) | IS_fg: x> ⇐ <x: IS(S₂•B) | IS_fg: y>
//! ```

use crate::context::Integrator;
use crate::trace::TraceEvent;
use crate::{IntegrationError, Result};
use assertions::AggOp;
use deduction::{Literal, OTermPat, Rule, Term};
use std::collections::{BTreeMap, BTreeSet};

/// Find a pair of (transitive) superclasses of (`a` in s1, `b` in s2) that
/// were merged into the same integrated class.
fn merged_parents(ctx: &Integrator<'_>, a: &str, b: &str) -> Option<String> {
    let a_anc = ctx.s1.ancestors(&a.into());
    let b_anc = ctx.s2.ancestors(&b.into());
    for pa in &a_anc {
        let is_pa = ctx.output.is(ctx.s1.name.as_str(), pa.as_str())?;
        for pb in &b_anc {
            if let Some(is_pb) = ctx.output.is(ctx.s2.name.as_str(), pb.as_str()) {
                if is_pa == is_pb {
                    return Some(is_pa.to_string());
                }
            }
        }
    }
    None
}

/// Apply Principle 4 to all pending disjoint assertions, grouped by merged
/// parent class.
pub fn apply_all(ctx: &mut Integrator<'_>, ids: &BTreeSet<usize>) -> Result<()> {
    // Group by the merged-parent integrated class.
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for &id in ids {
        let a = ctx
            .assertions
            .get(id)
            .ok_or_else(|| IntegrationError::Internal("bad assertion id".into()))?;
        // Normalise so the left class is from s1.
        let (ca, cb) = if a.left_schema == ctx.s1.name.as_str() {
            (a.left_class().to_string(), a.right_class.clone())
        } else {
            (a.right_class.clone(), a.left_class().to_string())
        };
        if let Some(parent) = merged_parents(ctx, &ca, &cb) {
            groups.entry(parent).or_default().push(id);
        }
        // Reverse-aggregation rules are generated regardless of parents.
        reverse_agg_rules(ctx, id)?;
    }
    for (parent, group) in groups {
        let mut a_classes: BTreeSet<String> = BTreeSet::new();
        let mut b_classes: BTreeSet<String> = BTreeSet::new();
        for &id in &group {
            let a = ctx.assertions.get(id).expect("validated above");
            let (ca, cb) = if a.left_schema == ctx.s1.name.as_str() {
                (a.left_class().to_string(), a.right_class.clone())
            } else {
                (a.right_class.clone(), a.left_class().to_string())
            };
            a_classes.insert(ca);
            b_classes.insert(cb);
        }
        let x = Term::var("x");
        let heads: Vec<Literal> = b_classes
            .iter()
            .filter_map(|b| ctx.output.is(ctx.s2.name.as_str(), b))
            .map(|is_b| Literal::oterm(OTermPat::new(x.clone(), is_b)))
            .collect();
        let mut body = vec![Literal::oterm(OTermPat::new(x.clone(), parent.as_str()))];
        for a in &a_classes {
            if let Some(is_a) = ctx.output.is(ctx.s1.name.as_str(), a) {
                body.push(Literal::neg(Literal::oterm(OTermPat::new(x.clone(), is_a))));
            }
        }
        if heads.is_empty() {
            continue;
        }
        let rule = Rule::disjunctive(heads, body);
        ctx.push_trace(|| TraceEvent::RuleGenerated {
            rule: rule.to_string(),
        });
        ctx.output.add_rule(rule);
        ctx.stats.rules_generated += 1;
    }
    Ok(())
}

/// Generate the reverse-aggregation rules for a disjoint assertion's `ℵ`
/// correspondences.
fn reverse_agg_rules(ctx: &mut Integrator<'_>, id: usize) -> Result<()> {
    let a = ctx
        .assertions
        .get(id)
        .ok_or_else(|| IntegrationError::Internal("bad assertion id".into()))?
        .clone();
    for corr in &a.agg_corrs {
        if corr.op != AggOp::Reverse {
            continue;
        }
        let is_left = match ctx.output.is(&corr.left.schema, corr.left.class_name()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        let is_right = match ctx.output.is(&corr.right.schema, corr.right.class_name()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        // IS_fg: the integrated name of the reverse pair — the paper's
        // combined function; we use the left function's name on the left
        // class and the right's on the right class.
        let f = corr.left.member().unwrap_or_default().to_string();
        let g = corr.right.member().unwrap_or_default().to_string();
        let (x, y) = (Term::var("x"), Term::var("y"));
        let r1 = Rule::new(
            Literal::oterm(OTermPat::new(x.clone(), is_right.as_str()).bind(&g, y.clone())),
            vec![Literal::oterm(
                OTermPat::new(y.clone(), is_left.as_str()).bind(&f, x.clone()),
            )],
        );
        let r2 = Rule::new(
            Literal::oterm(OTermPat::new(y.clone(), is_left.as_str()).bind(&f, x.clone())),
            vec![Literal::oterm(
                OTermPat::new(x, is_right.as_str()).bind(&g, y),
            )],
        );
        for rule in [r1, r2] {
            ctx.push_trace(|| TraceEvent::RuleGenerated {
                rule: rule.to_string(),
            });
            ctx.output.add_rule(rule);
            ctx.stats.rules_generated += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SchemaGraph;
    use assertions::{AggCorr, AssertionSet, ClassAssertion, ClassOp, SPath};
    use oo_model::{AttrType, Cardinality, SchemaBuilder};

    /// man ∅ woman under equivalent parents person ≡ human generates the
    /// complement rule.
    #[test]
    fn complement_rule_under_merged_parents() {
        let s1 = SchemaBuilder::new("S1")
            .class("person", |c| c.attr("ssn", AttrType::Str))
            .empty_class("man")
            .isa("man", "person")
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .class("human", |c| c.attr("ssn", AttrType::Str))
            .empty_class("woman")
            .isa("woman", "human")
            .build()
            .unwrap();
        let aset = AssertionSet::build([
            ClassAssertion::simple("S1", "person", ClassOp::Equiv, "S2", "human"),
            ClassAssertion::simple("S1", "man", ClassOp::Disjoint, "S2", "woman"),
        ])
        .unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.merge_equivalent(0).unwrap();
        ctx.note_disjoint(1);
        ctx.finalize().unwrap();
        let rules: Vec<String> = ctx.output.rules.iter().map(|r| r.to_string()).collect();
        assert!(
            rules.contains(&"<x: woman> ⇐ <x: person>, ¬<x: man>".to_string()),
            "rules were: {rules:?}"
        );
    }

    /// Without merged parents no complement rule is generated.
    #[test]
    fn no_rule_without_merged_parents() {
        let s1 = SchemaBuilder::new("S1").empty_class("man").build().unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("woman")
            .build()
            .unwrap();
        let aset = AssertionSet::build([ClassAssertion::simple(
            "S1",
            "man",
            ClassOp::Disjoint,
            "S2",
            "woman",
        )])
        .unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.note_disjoint(0);
        ctx.finalize().unwrap();
        assert!(ctx.output.rules.is_empty());
    }

    /// Fig. 4(d): man ∅ woman with spouse ℵ spouse generates the two
    /// reverse-aggregation rules.
    #[test]
    fn reverse_agg_rules_generated() {
        let s1 = SchemaBuilder::new("S1")
            .empty_class("woman_stub")
            .class("man", |c| {
                c.agg("spouse", "woman_stub", Cardinality::ONE_ONE)
            })
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("man_stub")
            .class("woman", |c| {
                c.agg("spouse", "man_stub", Cardinality::ONE_ONE)
            })
            .build()
            .unwrap();
        let aset = AssertionSet::build([ClassAssertion::simple(
            "S1",
            "man",
            ClassOp::Disjoint,
            "S2",
            "woman",
        )
        .agg_corr(AggCorr::new(
            SPath::attr("S1", "man", "spouse"),
            AggOp::Reverse,
            SPath::attr("S2", "woman", "spouse"),
        ))])
        .unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.note_disjoint(0);
        ctx.finalize().unwrap();
        let rules: Vec<String> = ctx.output.rules.iter().map(|r| r.to_string()).collect();
        assert!(rules.contains(&"<x: woman | spouse: y> ⇐ <y: man | spouse: x>".to_string()));
        assert!(rules.contains(&"<y: man | spouse: x> ⇐ <x: woman | spouse: y>".to_string()));
    }

    /// Multiple disjoints under one merged parent produce one disjunctive
    /// rule (the general form of Principle 4).
    #[test]
    fn disjunctive_rule_for_families() {
        let s1 = SchemaBuilder::new("S1")
            .empty_class("person")
            .empty_class("child")
            .empty_class("adult")
            .isa("child", "person")
            .isa("adult", "person")
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .empty_class("human")
            .empty_class("minor")
            .empty_class("grown")
            .isa("minor", "human")
            .isa("grown", "human")
            .build()
            .unwrap();
        let aset = AssertionSet::build([
            ClassAssertion::simple("S1", "person", ClassOp::Equiv, "S2", "human"),
            ClassAssertion::simple("S1", "child", ClassOp::Disjoint, "S2", "grown"),
            ClassAssertion::simple("S1", "adult", ClassOp::Disjoint, "S2", "minor"),
        ])
        .unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.merge_equivalent(0).unwrap();
        ctx.note_disjoint(1);
        ctx.note_disjoint(2);
        ctx.finalize().unwrap();
        // One disjunctive rule with two heads and two negations.
        let dis: Vec<_> = ctx
            .output
            .rules
            .iter()
            .filter(|r| r.heads.len() == 2)
            .collect();
        assert_eq!(dis.len(), 1);
        let s = dis[0].to_string();
        assert!(s.contains("∨"));
        assert!(s.contains("¬<x: adult>") && s.contains("¬<x: child>"));
    }
}
