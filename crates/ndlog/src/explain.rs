//! Derivation provenance: explain *why* a tuple is in the database.
//!
//! The incremental engine's support map records **how many** derivations
//! sustain each tuple — but not which rule firings produced it.  This
//! module reconstructs a rule-level derivation tree on demand with the
//! probe z-set maintenance uses to verify well-founded support: unify the
//! ground tuple with each candidate rule head (`CompiledRule::unify_head`),
//! enumerate satisfying body assignments over the *visible* store, and
//! recurse on the positive body atoms.
//!
//! The trees are **support-consistent** by construction: every node the
//! walker cites is visible in the engine's storage at the time of the call
//! (a property test pins this), and recursion is well-founded — a tuple
//! never appears twice on its own derivation path, so self-supporting
//! cycles (which z-set's well-foundedness check rejects) are never offered
//! as evidence.
//!
//! This is the observability counterpart of the paper's proof obligations:
//! where FVN asks "is this rule *provably correct*?", the explain API asks
//! the running system "what is the *evidence* for this tuple right now?".
//!
//! Entry points: [`crate::update::Session::explain`] and
//! [`IncrementalEngine::explain`].

use crate::ast::{Literal, Term};
use crate::error::Result;
use crate::eval::Env;
use crate::incremental::{eval_body_delta, StratumPlan};
use crate::incremental::{CompiledRule, DeltaCtx, IncrementalEngine};
use crate::storage::RelationStorage;
use crate::symbols::RelId;
use crate::value::{Tuple, Value};
use std::collections::BTreeSet;
use std::fmt;

/// Maximum derivation-tree depth before the walker gives up on a branch.
const MAX_DEPTH: usize = 64;

/// Maximum candidate body assignments enumerated per rule before moving to
/// the next rule (bounds backtracking on dense joins).
const MAX_CANDIDATES: usize = 8;

/// How a tuple is supported, one level deep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Support {
    /// The tuple is an external ground fact with `count` units of external
    /// support (base facts, runtime assertions, soft-state refreshes).
    Fact {
        /// Current external support count in the engine's store.
        count: usize,
    },
    /// The tuple was derived by rule `rule` from the cited premises — the
    /// rule's positive body atoms, each with its own sub-tree.  Negated
    /// literals and builtins hold implicitly (they constrain the
    /// assignment but cite no tuple).
    Rule {
        /// Label of the deriving rule (`r1`, `r2`, …).
        rule: String,
        /// One explanation per positive body atom, in body order.
        premises: Vec<Explanation>,
    },
    /// The tuple is the output of the aggregate rule `rule`
    /// (`min`/`max`/`count`/`sum`).  Group contributors are not
    /// enumerated — the aggregate's body lives strictly below its stratum
    /// and is recomputed, not support-counted.
    Aggregate {
        /// Label of the aggregate rule.
        rule: String,
    },
}

/// A rule-level derivation tree for one visible tuple.
///
/// Produced by [`crate::update::Session::explain`] /
/// [`IncrementalEngine::explain`]; every `(pred, tuple)` node in the tree
/// is visible in the engine's store at call time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explanation {
    /// Relation name of the explained tuple.
    pub pred: String,
    /// The explained tuple.
    pub tuple: Tuple,
    /// The evidence for it.
    pub support: Support,
}

impl Explanation {
    /// Every `(pred, tuple)` this tree cites, including the root —
    /// the set a support-consistency check must find visible.
    pub fn cited(&self) -> Vec<(&str, &Tuple)> {
        let mut out = vec![(self.pred.as_str(), &self.tuple)];
        if let Support::Rule { premises, .. } = &self.support {
            for p in premises {
                out.extend(p.cited());
            }
        }
        out
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        match &self.support {
            Support::Rule { premises, .. } => {
                1 + premises.iter().map(Explanation::size).sum::<usize>()
            }
            _ => 1,
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        let args: Vec<String> = self.tuple.iter().map(Value::to_string).collect();
        write!(f, "{pad}{}({})", self.pred, args.join(","))?;
        match &self.support {
            Support::Fact { count } => writeln!(f, "  [fact x{count}]"),
            Support::Aggregate { rule } => writeln!(f, "  [aggregate {rule}]"),
            Support::Rule { rule, premises } => {
                writeln!(f, "  [rule {rule}]")?;
                for p in premises {
                    p.fmt_indented(f, depth + 1)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Explanation {
    /// Render the tree as indented text, one node per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

impl IncrementalEngine {
    /// Walk the support map to a rule-level derivation tree for `tuple` of
    /// relation `pred`, or `None` when the tuple is not visible (or no
    /// well-founded derivation could be reconstructed within the walker's
    /// depth/backtracking bounds).
    ///
    /// See the [module docs](self) for semantics; the cheap entry point
    /// for session users is [`crate::update::Session::explain`].
    pub fn explain(&self, pred: &str, tuple: &[Value]) -> Option<Explanation> {
        let storage = self.storage();
        let rel = storage.symbols().lookup(pred)?;
        let mut on_path = BTreeSet::new();
        explain_tuple(storage, self.plans(), rel, tuple, &mut on_path, MAX_DEPTH)
    }
}

/// Recursive walker: EDB facts explain themselves; otherwise try plain
/// rules (backtracking over candidate assignments), then aggregate rules.
fn explain_tuple(
    storage: &RelationStorage,
    plans: &[StratumPlan],
    rel: RelId,
    tuple: &[Value],
    on_path: &mut BTreeSet<(RelId, Tuple)>,
    depth: usize,
) -> Option<Explanation> {
    if depth == 0 || !storage.contains_id(rel, tuple) {
        return None;
    }
    let pred = storage.symbols().name(rel).to_string();
    let count = storage.edb_count_id(rel, tuple);
    if count > 0 {
        // External support is the simplest consistent evidence; prefer it
        // even when a derivation also exists.
        return Some(Explanation {
            pred,
            tuple: tuple.to_vec(),
            support: Support::Fact {
                count: count as usize,
            },
        });
    }
    let key = (rel, tuple.to_vec());
    if !on_path.insert(key.clone()) {
        return None; // already on this derivation path: reject the cycle
    }
    let result = explain_derived(storage, plans, rel, tuple, on_path, depth);
    on_path.remove(&key);
    result.map(|support| Explanation {
        pred,
        tuple: tuple.to_vec(),
        support,
    })
}

fn explain_derived(
    storage: &RelationStorage,
    plans: &[StratumPlan],
    rel: RelId,
    tuple: &[Value],
    on_path: &mut BTreeSet<(RelId, Tuple)>,
    depth: usize,
) -> Option<Support> {
    for plan in plans {
        for rule in plan.plain.iter().filter(|r| r.head == rel) {
            let Some(env) = rule.unify_head(tuple) else {
                continue;
            };
            let candidates = enumerate_bodies(storage, rule, &env).ok()?;
            'candidate: for env in candidates {
                let mut premises = Vec::new();
                for (i, lit) in rule.rule.body.iter().enumerate() {
                    let Literal::Pos(atom) = lit else { continue };
                    let body_rel = rule.body_rels[i].expect("positive atom has id");
                    let ground: Tuple = atom
                        .args
                        .iter()
                        .map(|t| match t {
                            Term::Const(c) => c.clone(),
                            Term::Var(v) => env
                                .get(v)
                                .cloned()
                                .expect("complete assignment binds body vars"),
                        })
                        .collect();
                    match explain_tuple(storage, plans, body_rel, &ground, on_path, depth - 1) {
                        Some(e) => premises.push(e),
                        None => continue 'candidate,
                    }
                }
                return Some(Support::Rule {
                    rule: rule.rule.name.clone(),
                    premises,
                });
            }
        }
        if let Some((_, rule)) = plan.aggs.iter().find(|(_, r)| r.head == rel) {
            // Aggregate outputs are recomputed, not support-counted; the
            // visible tuple is its own evidence of the group's current
            // value.
            return Some(Support::Aggregate {
                rule: rule.rule.name.clone(),
            });
        }
    }
    None
}

/// Enumerate up to [`MAX_CANDIDATES`] complete body assignments consistent
/// with the pre-bound head environment, over the visible store.
fn enumerate_bodies(storage: &RelationStorage, rule: &CompiledRule, env: &Env) -> Result<Vec<Env>> {
    let mut found: Vec<Env> = Vec::new();
    let mut sink = |env: &Env, _sign: i64| -> Result<bool> {
        found.push(env.clone());
        Ok(found.len() < MAX_CANDIDATES)
    };
    let seq: Vec<usize> = (0..rule.rule.body.len()).collect();
    let ctx = DeltaCtx {
        storage,
        body: &rule.rule.body,
        body_rels: &rule.body_rels,
        seq: &seq,
        delta_at: None,
        delta: None,
        delta_sign: 1,
        adjust: None,
    };
    eval_body_delta(&ctx, 0, env, 1, &mut sink)?;
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::TupleDelta;
    use crate::parser::parse_program;

    fn addr(n: u32) -> Value {
        Value::Addr(n)
    }

    fn reach_engine() -> IncrementalEngine {
        let prog = parse_program(
            "a reach(X,Y) :- edge(X,Y).
             b reach(X,Y) :- reach(X,Z), edge(Z,Y).
             edge(#0,#1). edge(#1,#2). edge(#2,#3).",
        )
        .unwrap();
        IncrementalEngine::new(&prog).unwrap()
    }

    #[test]
    fn edb_tuple_explains_as_fact() {
        let engine = reach_engine();
        let e = engine.explain("edge", &[addr(0), addr(1)]).unwrap();
        assert_eq!(e.support, Support::Fact { count: 1 });
        assert_eq!(e.size(), 1);
    }

    #[test]
    fn derived_tuple_explains_through_rules_to_facts() {
        let engine = reach_engine();
        let e = engine.explain("reach", &[addr(0), addr(3)]).unwrap();
        // Every leaf of the tree is an external fact.
        fn leaves_are_facts(e: &Explanation) -> bool {
            match &e.support {
                Support::Fact { .. } => true,
                Support::Aggregate { .. } => true,
                Support::Rule { premises, .. } => premises.iter().all(leaves_are_facts),
            }
        }
        assert!(leaves_are_facts(&e), "non-fact leaf in:\n{e}");
        // The chain 0->3 needs at least the recursive rule plus base edges.
        assert!(e.size() >= 3, "tree too small:\n{e}");
        // Support-consistency: every cited tuple is visible.
        for (pred, t) in e.cited() {
            assert!(engine.contains(pred, t), "cites invisible {pred} {t:?}");
        }
    }

    #[test]
    fn invisible_tuple_has_no_explanation() {
        let engine = reach_engine();
        assert!(engine.explain("reach", &[addr(3), addr(0)]).is_none());
        assert!(engine.explain("nosuch", &[addr(0)]).is_none());
    }

    #[test]
    fn explanation_survives_churn() {
        let mut engine = reach_engine();
        engine
            .apply(&[TupleDelta::remove("edge", vec![addr(1), addr(2)])])
            .unwrap();
        assert!(engine.explain("reach", &[addr(0), addr(3)]).is_none());
        assert!(engine.explain("reach", &[addr(0), addr(1)]).is_some());
        engine
            .apply(&[TupleDelta::insert("edge", vec![addr(1), addr(2)])])
            .unwrap();
        let e = engine.explain("reach", &[addr(0), addr(3)]).unwrap();
        for (pred, t) in e.cited() {
            assert!(engine.contains(pred, t));
        }
    }

    #[test]
    fn aggregate_output_explains_as_aggregate() {
        let prog = parse_program(
            "a deg(X, count<Y>) :- edge(X,Y).
             edge(#0,#1). edge(#0,#2).",
        )
        .unwrap();
        let engine = IncrementalEngine::new(&prog).unwrap();
        let e = engine.explain("deg", &[addr(0), Value::Int(2)]).unwrap();
        assert_eq!(
            e.support,
            Support::Aggregate {
                rule: "a".to_string()
            }
        );
    }

    #[test]
    fn display_renders_an_indented_tree() {
        let engine = reach_engine();
        let e = engine.explain("reach", &[addr(0), addr(2)]).unwrap();
        let text = e.to_string();
        assert!(text.contains("[rule"), "{text}");
        assert!(text.contains("[fact x1]"), "{text}");
        assert!(text.lines().count() >= 3, "{text}");
    }
}
