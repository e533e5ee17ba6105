//! **Principle 3** — integration of intersection assertions.
//!
//! For `S₁•A ∩ S₂•B`, insert `IS(S₁•A)`, `IS(S₂•B)` and the virtual class
//! `IS_AB` into `S`, and construct the defining rules:
//!
//! ```text
//! <x: IS_AB> ⇐ <x: IS(S₁•A)>, <y: IS(S₂•B)>, y = x
//! <x: IS_A−> ⇐ <x: IS(S₁•A)>, ¬<x: IS_AB>
//! <x: IS_B−> ⇐ <x: IS(S₂•B)>, ¬<x: IS_AB>
//! ```
//!
//! `IS_AB`'s attributes follow the same case analysis as Principle 1,
//! including the **attribute integration function** (`AIF`) for
//! intersecting attributes (Example 8's `AIF_i_s_s(x,y) = (x+y)/2`) and the
//! `re(Sᵢ, IS_attr)` localisation captured in each [`crate::AttrOrigin`].

use crate::context::Integrator;
use crate::integrated::ISClass;
use crate::trace::TraceEvent;
use crate::{IntegrationError, Result};
use deduction::{CmpOp, Literal, OTermPat, Rule, Term};

/// Build the membership rules for `IS_AB`, `IS_A−` and `IS_B−`.
pub fn membership_rules(
    is_a: &str,
    is_b: &str,
    is_ab: &str,
    a_minus: &str,
    b_minus: &str,
) -> [Rule; 3] {
    let x = Term::var("x");
    let y = Term::var("y");
    [
        Rule::new(
            Literal::oterm(OTermPat::new(x.clone(), is_ab)),
            vec![
                Literal::oterm(OTermPat::new(x.clone(), is_a)),
                Literal::oterm(OTermPat::new(y.clone(), is_b)),
                Literal::cmp(y, CmpOp::Eq, x.clone()),
            ],
        ),
        Rule::new(
            Literal::oterm(OTermPat::new(x.clone(), a_minus)),
            vec![
                Literal::oterm(OTermPat::new(x.clone(), is_a)),
                Literal::neg(Literal::oterm(OTermPat::new(x.clone(), is_ab))),
            ],
        ),
        Rule::new(
            Literal::oterm(OTermPat::new(x.clone(), b_minus)),
            vec![
                Literal::oterm(OTermPat::new(x.clone(), is_b)),
                Literal::neg(Literal::oterm(OTermPat::new(x, is_ab))),
            ],
        ),
    ]
}

/// Apply Principle 3 for one pending intersection assertion.
pub fn apply(ctx: &mut Integrator<'_>, assertion_id: usize) -> Result<()> {
    let a = ctx
        .assertions
        .get(assertion_id)
        .ok_or_else(|| IntegrationError::Internal("bad assertion id".into()))?
        .clone();
    // IS(S₁•A) and IS(S₂•B) exist already (copied or merged).
    let is_a = ctx
        .output
        .is(&a.left_schema, a.left_class())
        .ok_or_else(|| IntegrationError::Internal(format!("IS({}) missing", a.left_class())))?
        .to_string();
    let is_b = ctx
        .output
        .is(&a.right_schema, &a.right_class)
        .ok_or_else(|| IntegrationError::Internal(format!("IS({}) missing", a.right_class)))?
        .to_string();
    let ab_name = ctx
        .output
        .fresh_name(&format!("{}_{}", a.left_class(), a.right_class));
    if ctx.output.class(&ab_name).is_some() {
        return Ok(());
    }
    // The intersection class with Principle 1-style attribute analysis.
    let mut ab = ISClass::new(ab_name.clone());
    ab.virtual_class = true;
    super::equivalence::merge_attrs(ctx, &a, &mut ab)?;
    super::equivalence::merge_aggs(ctx, &a, &mut ab)?;
    ctx.output.insert_class(ab);
    ctx.stats.virtual_classes += 1;
    ctx.push_trace(|| TraceEvent::VirtualClass {
        name: ab_name.clone(),
    });
    // The two complement classes (virtual, attribute-free: "no integration
    // happens at all" for attributes of IS_A− / IS_B−, Example 8).
    let a_minus = ctx.output.fresh_name(&format!("{}_", a.left_class()));
    let mut am = ISClass::new(a_minus.clone());
    am.virtual_class = true;
    ctx.output.insert_class(am);
    let b_minus = ctx.output.fresh_name(&format!("{}_", a.right_class));
    let mut bm = ISClass::new(b_minus.clone());
    bm.virtual_class = true;
    ctx.output.insert_class(bm);
    ctx.stats.virtual_classes += 2;

    for rule in membership_rules(&is_a, &is_b, &ab_name, &a_minus, &b_minus) {
        ctx.push_trace(|| TraceEvent::RuleGenerated {
            rule: rule.to_string(),
        });
        ctx.output.add_rule(rule);
        ctx.stats.rules_generated += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SchemaGraph;
    use assertions::{AssertionSet, AttrCorr, AttrOp, ClassAssertion, ClassOp, SPath};
    use oo_model::{AttrType, SchemaBuilder};

    /// Example 8: S₁•faculty ∩ S₂•student.
    #[test]
    fn example_8_rules_and_classes() {
        let s1 = SchemaBuilder::new("S1")
            .class("faculty", |c| {
                c.attr("fssn#", AttrType::Str)
                    .attr("name", AttrType::Str)
                    .attr("income", AttrType::Int)
            })
            .build()
            .unwrap();
        let s2 = SchemaBuilder::new("S2")
            .class("student", |c| {
                c.attr("ssn#", AttrType::Str)
                    .attr("name", AttrType::Str)
                    .attr("study_support", AttrType::Int)
            })
            .build()
            .unwrap();
        let a = ClassAssertion::simple("S1", "faculty", ClassOp::Intersect, "S2", "student")
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "faculty", "fssn#"),
                AttrOp::Equiv,
                SPath::attr("S2", "student", "ssn#"),
            ))
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "faculty", "name"),
                AttrOp::Equiv,
                SPath::attr("S2", "student", "name"),
            ))
            .attr_corr(AttrCorr::new(
                SPath::attr("S1", "faculty", "income"),
                AttrOp::Intersect,
                SPath::attr("S2", "student", "study_support"),
            ));
        let aset = AssertionSet::build([a]).unwrap();
        let mut ctx = Integrator::new(&SchemaGraph::new(&s1), &SchemaGraph::new(&s2), &aset);
        ctx.note_intersection(0);
        ctx.finalize().unwrap();

        // Copies exist, plus three virtual classes.
        assert!(ctx.output.class("faculty").is_some());
        assert!(ctx.output.class("student").is_some());
        let ab = ctx.output.class("faculty_student").unwrap();
        assert!(ab.virtual_class);
        // merged common attribute with AIF (Example 8's income_study_support)
        assert!(ab.attribute("income_study_support").is_some());
        assert!(ctx.output.class("faculty_").unwrap().virtual_class);
        assert!(ctx.output.class("student_").unwrap().virtual_class);

        // The three membership rules.
        let rules: Vec<String> = ctx.output.rules.iter().map(|r| r.to_string()).collect();
        assert!(
            rules.contains(&"<x: faculty_student> ⇐ <x: faculty>, <y: student>, y = x".to_string())
        );
        assert!(rules.contains(&"<x: faculty_> ⇐ <x: faculty>, ¬<x: faculty_student>".to_string()));
        assert!(rules.contains(&"<x: student_> ⇐ <x: student>, ¬<x: faculty_student>".to_string()));
    }

    #[test]
    fn rules_are_safe_and_stratified() {
        let rules = membership_rules("A", "B", "AB", "A_", "B_");
        for r in &rules {
            deduction::check_rule(r).unwrap();
        }
        deduction::stratify(rules.as_ref()).unwrap();
    }
}
