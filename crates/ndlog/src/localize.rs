//! Rule localization for distributed execution.
//!
//! Declarative networking executes NDlog on many nodes: each tuple lives at
//! the node named by its location specifier.  A rule is *link-local* when its
//! body can be evaluated entirely at one node and its head shipped over a
//! direct link.  Rules whose bodies span two locations (like the paper's `r2`,
//! which joins `link(@S,Z,C1)` with `path(@Z,D,P2,C2)`) are rewritten
//! following Loo et al. (SIGCOMM'05): the connecting link atom is re-homed to
//! the other endpoint via a fresh relay predicate, after which every body
//! literal shares one location.
//!
//! Example (`r2` of the paper):
//!
//! ```text
//! path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), ...
//!   ==>
//! linkD(@Z,S,C1)  :- link(@S,Z,C1).
//! path(@S,D,P,C)  :- linkD(@Z,S,C1), path(@Z,D,P2,C2), ...
//! ```
//!
//! The first rewritten rule sends each link tuple to its destination; the
//! second has a fully local body (at `Z`) and a remote head (at `S`), which
//! the runtime ships as a message — legal because `S` is one hop from `Z`
//! (it appears in `linkD` stored at `Z`).

use crate::ast::*;
use crate::error::{NdlogError, Result};
use std::collections::BTreeSet;

/// A localized program: every rule body is single-location.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizedProgram {
    /// The rewritten rules (relay rules first, then original rules in order).
    pub rules: Vec<Rule>,
    /// Names of relay predicates introduced by the rewrite.
    pub relay_preds: BTreeSet<String>,
}

impl LocalizedProgram {
    /// Render as a `Program` (no facts / materialize statements).
    pub fn to_program(&self) -> Program {
        Program {
            materializes: vec![],
            facts: vec![],
            rules: self.rules.clone(),
        }
    }

    /// Consume the rewrite into a `Program`, moving the rules instead of
    /// cloning them (the runtime compiles each localized program exactly
    /// once, so the clone in [`Self::to_program`] was pure overhead).
    pub fn into_program(self) -> Program {
        Program {
            materializes: vec![],
            facts: vec![],
            rules: self.rules,
        }
    }
}

/// Check whether a rule body already sits at a single location.
pub fn is_local(rule: &Rule) -> bool {
    rule.body_locations().len() <= 1
}

/// Localize one rule. Single-location rules pass through unchanged; rules
/// spanning exactly two locations connected by a located atom containing both
/// location variables are rewritten; anything else is an error.
pub fn localize_rule(rule: &Rule, fresh: &mut usize) -> Result<Vec<Rule>> {
    let locs = rule.body_locations();
    if locs.len() <= 1 {
        return Ok(vec![rule.clone()]);
    }
    if locs.len() > 2 {
        return Err(NdlogError::Localization {
            rule: rule.name.clone(),
            msg: format!("body spans {} locations; only 1 or 2 supported", locs.len()),
        });
    }
    let mut it = locs.iter();
    let (a, b) = (it.next().unwrap().clone(), it.next().unwrap().clone());

    // Count body atoms per location to decide the *evaluation site*: the
    // location owning more atoms hosts the join; atoms at the other location
    // are relayed over the connecting atom.
    let count_at = |v: &str| {
        rule.body
            .iter()
            .filter(|l| matches!(l, Literal::Pos(at) | Literal::Neg(at) if at.loc_var() == Some(v)))
            .count()
    };
    let (site, other) = if count_at(&a) >= count_at(&b) {
        (a, b)
    } else {
        (b, a)
    };

    // Find a positive connecting atom located at `other` that mentions `site`
    // (it lets `other` address `site` directly — one-hop communication).
    let mut connecting: Option<&Atom> = None;
    for l in &rule.body {
        if let Literal::Pos(at) = l {
            if at.loc_var() == Some(other.as_str()) {
                let mut vs = BTreeSet::new();
                at.vars(&mut vs);
                if vs.contains(site.as_str()) {
                    connecting = Some(at);
                    break;
                }
            }
        }
    }
    // Fall back: a connecting atom located at `site` mentioning `other` — we
    // then relay it to `other` and flip the join site.
    let (site, other, connecting) = match connecting {
        Some(c) => (site, other, c.clone()),
        None => {
            let mut found = None;
            for l in &rule.body {
                if let Literal::Pos(at) = l {
                    if at.loc_var() == Some(site.as_str()) {
                        let mut vs = BTreeSet::new();
                        at.vars(&mut vs);
                        if vs.contains(other.as_str()) {
                            found = Some(at.clone());
                            break;
                        }
                    }
                }
            }
            match found {
                Some(c) => (other, site, c),
                None => {
                    return Err(NdlogError::Localization {
                        rule: rule.name.clone(),
                        msg: "no connecting atom joining the two locations".into(),
                    })
                }
            }
        }
    };

    // Build the relay predicate: same arguments as the connecting atom but
    // homed at `site` (which appears among its variables).
    *fresh += 1;
    let relay_name = format!("{}_relay{}", connecting.pred, fresh);
    let site_idx = connecting
        .args
        .iter()
        .position(|t| t.as_var() == Some(site.as_str()))
        .expect("connecting atom mentions site");
    let relay_head_atom = Atom {
        pred: relay_name.clone(),
        loc: Some(site_idx),
        args: connecting.args.clone(),
    };
    let relay_rule = Rule {
        name: format!("{}_relay{}", rule.name, fresh),
        head: Head {
            pred: relay_name.clone(),
            loc: Some(site_idx),
            args: relay_head_atom
                .args
                .iter()
                .cloned()
                .map(HeadArg::Term)
                .collect(),
        },
        body: vec![Literal::Pos(connecting.clone())],
    };

    // Rewrite the original rule: replace atoms located at `other` — the
    // connecting atom becomes the relay atom; any *other* atom still at
    // `other` is unsupported (would need multi-hop relay).
    let mut new_body = Vec::with_capacity(rule.body.len());
    let mut replaced = false;
    for l in &rule.body {
        match l {
            Literal::Pos(at) if !replaced && *at == connecting => {
                new_body.push(Literal::Pos(relay_head_atom.clone()));
                replaced = true;
            }
            Literal::Pos(at) | Literal::Neg(at) if at.loc_var() == Some(other.as_str()) => {
                return Err(NdlogError::Localization {
                    rule: rule.name.clone(),
                    msg: format!(
                        "atom {at} remains at location {other} after relaying the connecting atom"
                    ),
                });
            }
            other_lit => new_body.push(other_lit.clone()),
        }
    }
    let rewritten = Rule {
        name: rule.name.clone(),
        head: rule.head.clone(),
        body: new_body,
    };
    debug_assert!(is_local(&rewritten));
    Ok(vec![relay_rule, rewritten])
}

/// Localize a whole program.
pub fn localize_program(prog: &Program) -> Result<LocalizedProgram> {
    let mut fresh = 0usize;
    let mut rules = Vec::new();
    let mut relay_preds = BTreeSet::new();
    for r in &prog.rules {
        let rs = localize_rule(r, &mut fresh)?;
        if rs.len() > 1 {
            relay_preds.insert(rs[0].head.pred.clone());
        }
        rules.extend(rs);
    }
    Ok(LocalizedProgram { rules, relay_preds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_program, Evaluator};
    use crate::parser::parse_program;
    use crate::value::Value;

    const PV: &str = r#"
        r1 path(@S,D,P,C):-link(@S,D,C), P=f_init(S,D).
        r2 path(@S,D,P,C):-link(@S,Z,C1), path(@Z,D,P2,C2),
             C=C1+C2, P=f_concatPath(S,P2), f_inPath(P2,S)=false.
        r3 bestPathCost(@S,D,min<C>):-path(@S,D,P,C).
        r4 bestPath(@S,D,P,C):-bestPathCost(@S,D,C), path(@S,D,P,C).
    "#;

    #[test]
    fn r2_is_rewritten_into_relay_plus_local_rule() {
        let prog = parse_program(PV).unwrap();
        let loc = localize_program(&prog).unwrap();
        // r1, r3, r4 unchanged; r2 becomes two rules.
        assert_eq!(loc.rules.len(), 5);
        assert_eq!(loc.relay_preds.len(), 1);
        let relay = loc.relay_preds.iter().next().unwrap();
        assert!(relay.starts_with("link_relay"));
        // Every rewritten rule body is single-location.
        for r in &loc.rules {
            assert!(is_local(r), "rule {} still spans locations", r.name);
        }
        // The relay rule re-homes link to its destination variable Z.
        let relay_rule = &loc.rules[1];
        assert_eq!(relay_rule.head.pred, *relay);
        assert_eq!(relay_rule.head.loc, Some(1)); // Z is arg index 1 of link(S,Z,C1)
    }

    #[test]
    fn localization_preserves_centralized_semantics() {
        // Evaluate original and localized programs centrally; the localized
        // program must agree on all original predicates.
        let facts = "link(@#0,#1,1). link(@#1,#0,1).
                     link(@#1,#2,2). link(@#2,#1,2).
                     link(@#0,#2,9). link(@#2,#0,9).";
        let orig = parse_program(&format!("{PV}{facts}")).unwrap();
        let loc = localize_program(&orig).unwrap();
        let mut loc_prog = loc.to_program();
        loc_prog.facts = orig.facts.clone();

        let db1 = eval_program(&orig).unwrap();
        let db2 = eval_program(&loc_prog).unwrap();
        for pred in ["path", "bestPathCost", "bestPath"] {
            let t1: Vec<_> = db1.relation(pred).cloned().collect();
            let t2: Vec<_> = db2.relation(pred).cloned().collect();
            assert_eq!(t1, t2, "mismatch on {pred}");
        }
    }

    #[test]
    fn local_rules_pass_through() {
        let prog = parse_program("x p(@S,D) :- q(@S,D), r(@S).").unwrap();
        let loc = localize_program(&prog).unwrap();
        assert_eq!(loc.rules.len(), 1);
        assert!(loc.relay_preds.is_empty());
    }

    #[test]
    fn three_locations_rejected() {
        let prog = parse_program("x p(@S,D) :- a(@S,Z), b(@Z,W), c(@W,D).").unwrap();
        assert!(localize_program(&prog).is_err());
    }

    #[test]
    fn no_connecting_atom_rejected() {
        // Two locations but neither atom mentions the other's location var.
        let prog = parse_program("x p(@S,T) :- a(@S,X), b(@T,X).").unwrap();
        assert!(localize_program(&prog).is_err());
    }

    #[test]
    fn relayed_program_is_still_safe_and_evaluable() {
        let facts = "link(@#0,#1,1). link(@#1,#2,1).";
        let prog = parse_program(&format!("{PV}{facts}")).unwrap();
        let loc = localize_program(&prog).unwrap();
        let mut p = loc.to_program();
        p.facts = prog.facts.clone();
        let ev = Evaluator::new(&p).unwrap();
        let mut db = ev.base_database(&p);
        ev.run(&mut db).unwrap();
        assert!(db.to_named(ev.symbols()).contains(
            "bestPathCost",
            &vec![Value::Addr(0), Value::Addr(2), Value::Int(2)]
        ));
    }
}
