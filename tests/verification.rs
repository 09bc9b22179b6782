//! Verification-focused integration tests: additional protocol theories
//! pushed through the arc-4 translation and the prover, and the PVS
//! renderer checked against the paper's §3.1 snippet.

use fvn::ndlog_to_theory;
use fvn_logic::prover::{Command, Prover};
use fvn_logic::pvs::{render_def, render_formula, render_theory};
use fvn_logic::{Formula, Term};

fn v(s: &str) -> Term {
    Term::var(s)
}

fn pred(name: &str, args: Vec<Term>) -> Formula {
    Formula::Pred(name.into(), args)
}

/// The arc-4 translation of the paper's program renders as PVS source that
/// matches the §3.1 snippet structure.
#[test]
fn translated_path_definition_renders_like_the_papers_pvs() {
    let prog = ndlog::parse_program(ndlog::programs::PATH_VECTOR).unwrap();
    let th = ndlog_to_theory(&prog, "pathVector").unwrap();
    let s = render_def("path", &th.defs["path"]);
    // Paper (§3.1):
    //   path(S,D,(P: Path),C): INDUCTIVE bool =
    //     (link(S,D,C) AND P=f_init(S,D)) OR
    //     (EXISTS (C1,C2:Metric) (P2:Path) (Z:Node):
    //        link(S,Z,C1) AND path(Z,D,P2,C2) AND C=C1+C2
    //        AND P=f_concatPath(S,P2) AND f_inPath(S,P2)=FALSE)
    assert!(s.starts_with("path(S,D,P,C): INDUCTIVE bool ="), "{s}");
    assert!(s.contains("(link(S,D,C) AND P=init(S,D)) OR"), "{s}");
    assert!(
        s.contains("EXISTS (") && ["C1", "C2", "P2", "Z"].iter().all(|x| s.contains(x)),
        "{s}"
    );
    assert!(s.contains("C=C1+C2"), "{s}");
    assert!(s.contains("P=concat(S,P2)"), "{s}");
    assert!(s.contains("NOT inPath(P2,S)"), "{s}");

    // The whole theory renders as a well-formed THEORY block.
    let block = render_theory(&th);
    assert!(block.starts_with("pathVector: THEORY"));
    assert!(block.trim_end().ends_with("END pathVector"));

    // The bestPathStrong statement renders exactly like the paper's prose.
    let stmt = fvn::best_path_strong();
    assert_eq!(
        render_formula(&stmt),
        "FORALL (S,D,C,P): bestPath(S,D,P,C) => \
         NOT (EXISTS (C2,P2): path(S,D,P2,C2) AND C2<C)"
    );
}

/// The distance-vector program translates and its metric bound is provable
/// by rule induction: every derived hop has cost below the RIP infinity.
#[test]
fn distance_vector_bounded_cost_theorem() {
    let prog = ndlog::programs::distance_vector(16);
    let mut th = ndlog_to_theory(&prog, "distanceVector").unwrap();
    // Environment axiom: link costs are at least 1 and below infinity.
    th.axiom(
        "linkCostRange",
        Formula::forall(
            &["S", "D", "C"],
            Formula::implies(
                pred("link", vec![v("S"), v("D"), v("C")]),
                Formula::And(
                    Box::new(Formula::Le(Term::int(1), v("C"))),
                    Box::new(Formula::Lt(v("C"), Term::int(16))),
                ),
            ),
        ),
    );
    // Theorem: hop(S,D,Z,C) => C < 16.  The base case needs the link
    // axiom; the inductive case closes from the rule's own C < 16 guard.
    let bounded = Formula::forall(
        &["S", "D", "Z", "C"],
        Formula::implies(
            pred("hop", vec![v("S"), v("D"), v("Z"), v("C")]),
            Formula::Lt(v("C"), Term::int(16)),
        ),
    );
    let mut p = Prover::new(&th, bounded.clone());
    p.apply(&Command::Induct("hop".into())).unwrap();
    let _ = p.apply(&Command::Grind);
    assert!(p.is_proved(), "open goal: {:?}", p.current());

    // Negative control: the bound cannot be tightened to 2.
    let too_tight = Formula::forall(
        &["S", "D", "Z", "C"],
        Formula::implies(
            pred("hop", vec![v("S"), v("D"), v("Z"), v("C")]),
            Formula::Lt(v("C"), Term::int(2)),
        ),
    );
    let mut p2 = Prover::new(&th, too_tight);
    let _ = p2.apply(&Command::Induct("hop".into()));
    let _ = p2.apply(&Command::Grind);
    assert!(!p2.is_proved(), "an over-tight bound must not prove");
}

/// Reachability: links imply reachability (base-case soundness), provable
/// fully automatically from the translated definition.
#[test]
fn reachability_base_case_is_automatic() {
    let prog = ndlog::programs::reachability();
    let th = ndlog_to_theory(&prog, "reach").unwrap();
    let goal = Formula::forall(
        &["S", "D", "C"],
        Formula::implies(
            pred("link", vec![v("S"), v("D"), v("C")]),
            pred("reachable", vec![v("S"), v("D")]),
        ),
    );
    let mut p = Prover::new(&th, goal);
    // reachable is recursive, so grind will not expand it; prove by
    // unfolding once manually: reachable(S,D) <= r1's clause.  run_script
    // stops as soon as the proof closes.
    let done = p
        .run_script(&[
            Command::Skolem,
            Command::Flatten,
            Command::Expand("reachable".into()),
            Command::Flatten,
            Command::InstAuto,
            Command::Prop,
        ])
        .unwrap();
    assert!(done, "open: {:?}", p.current());
}

/// The generated metarouting protocol for the BGPSystem also translates
/// through arc 4 (closing the loop: meta-model -> NDlog -> logic).
#[test]
fn generated_bgp_protocol_translates_to_logic() {
    let gp = metarouting::generate(&metarouting::AlgebraSpec::bgp_system());
    let th = ndlog_to_theory(&gp.program, "bgpSystem").unwrap();
    assert!(th.defs.contains_key("route"));
    assert!(th.defs.contains_key("bestCand"));
    assert!(th.defs.contains_key("bestRoute"));
    // The route definition is recursive; selection predicates are not.
    assert!(th.defs["route"].is_recursive("route"));
    assert!(!th.defs["bestRoute"].is_recursive("bestRoute"));
    // And it renders to valid-looking PVS.
    let block = render_theory(&th);
    assert!(block.contains("route(") && block.contains("INDUCTIVE bool"));
}

/// The model checker explores churn interleavings against a
/// **z-set-backed** engine on an SCC topology and re-verifies the paper's
/// route-validity invariants at every reachable state — §2.2's loop
/// freedom (the `f_inPath` guard keeps every derived path simple and
/// endpoint-anchored) and §3.1's `bestPathStrong` (a selected best path
/// admits no cheaper alternative), the same statements
/// `tests/paper_fidelity.rs` pins in their proof-theoretic form.  Every
/// interleaving drains to one state, and that state equals from-scratch
/// evaluation over the schedule's final facts — model-checked agreement
/// with the oracle.
#[test]
fn zset_churn_interleavings_preserve_route_validity_on_scc() {
    use fvn_mc::{check_invariant, stable_states, ChurnState, ChurnTs, ExploreOptions};
    use ndlog::Update;
    use std::collections::BTreeSet;

    // Path vector on a dense SCC: a symmetric 4-ring plus the 0–2 chord
    // (links are bidirectional, matching the symmetric link_up/link_down
    // lowering), so every deletion has alternate support.
    let mut prog = ndlog::programs::path_vector();
    let edges = [
        (0u32, 1u32, 1i64),
        (1, 2, 1),
        (2, 3, 1),
        (3, 0, 1),
        (0, 2, 3),
    ];
    ndlog::programs::add_links(&mut prog, &edges);

    // A failure, a metric change, and the recovery: the checker covers
    // every interleaving (all 2^3 applied-subsets of the schedule).
    let updates = vec![
        ("fail01".to_string(), vec![Update::link_down(0, 1, 1)]),
        (
            "metric02".to_string(),
            vec![Update::metric_change(0, 2, 3, 2)],
        ),
        ("recover01".to_string(), vec![Update::link_up(0, 1, 1)]),
    ];

    let route_validity = |s: &ChurnState| -> bool {
        let db = s.database();
        // §2.2 loop freedom: no node repeats, and the path runs S -> D.
        let simple = db.relation("path").all(|t| {
            let p = t[2].as_list().expect("path component is a list");
            let mut seen = BTreeSet::new();
            p.iter().all(|n| seen.insert(n)) && p.first() == Some(&t[0]) && p.last() == Some(&t[1])
        });
        // §3.1 bestPathStrong: nothing cheaper than a selected best path.
        let strong = db.relation("bestPath").all(|b| {
            db.relation("path")
                .filter(|p| p[0] == b[0] && p[1] == b[1])
                .all(|p| p[3] >= b[3])
        });
        // The selected cost agrees with the min-aggregate relation.
        let consistent = db.relation("bestPath").all(|b| {
            db.contains(
                "bestPathCost",
                &vec![b[0].clone(), b[1].clone(), b[3].clone()],
            )
        });
        simple && strong && consistent
    };

    let ts = ChurnTs::new(&prog, updates).unwrap();
    let visited = check_invariant(&ts, ExploreOptions::default(), route_validity)
        .unwrap_or_else(|e| panic!("z-set maintenance violates route validity: {e:?}"));
    assert!(!ts.truncated(), "exploration was pruned");
    assert!(visited >= 8, "all 2^3 churn subsets reached: {visited}");

    // Confluence: every interleaving drains to one fixpoint, and it is the
    // oracle's — the final facts hold link 0–1 at cost 1 (failed, then
    // recovered) and link 0–2 at its new cost 2.
    let stable = stable_states(&ts, ExploreOptions::default());
    assert_eq!(stable.len(), 1, "unique drained state");
    let mut final_prog = ndlog::programs::path_vector();
    ndlog::programs::add_links(
        &mut final_prog,
        &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 2)],
    );
    assert_eq!(
        stable[0].database(),
        ndlog::eval_program(&final_prog).unwrap(),
        "the drained state diverges from from-scratch evaluation"
    );
}

/// ISSUE 8: the model checker explores a **fault campaign** — node
/// crash/restart overlapping a link flap, plus duplicate deliveries — on
/// the same SCC topology, and re-verifies §2.2 loop freedom and §3.1
/// `bestPathStrong` in every reachable fault configuration.  Message
/// drops are covered as interleavings (a lost delivery is a later
/// delivery), duplicates as explicit empty-delta self-loops (the model
/// image of the runtime's seq-space suppression, `DESIGN.md` §12), and
/// crash/restart as the purge-and-re-ship the runtime's neighbors
/// perform.  Every fully-drained interleaving returns to the loss-free
/// fixpoint.
#[test]
fn fault_campaign_preserves_route_validity_on_scc() {
    use fvn_mc::{check_invariant, explore, ExploreOptions, FaultOp, FaultState, FaultTs};
    use std::collections::BTreeSet;

    // The §2.2 SCC: symmetric 4-ring plus the 0–2 chord, so the graph
    // stays connected while node 1 is down, the chord is down, or both.
    let mut prog = ndlog::programs::path_vector();
    let edges = [
        (0u32, 1u32, 1i64),
        (1, 2, 1),
        (2, 3, 1),
        (3, 0, 1),
        (0, 2, 3),
    ];
    ndlog::programs::add_links(&mut prog, &edges);

    let events = vec![
        ("crash 1".to_string(), FaultOp::Crash(1)),
        ("restart 1".to_string(), FaultOp::Restart(1)),
        ("down 0-2".to_string(), FaultOp::LinkDown(0, 2)),
        ("up 0-2".to_string(), FaultOp::LinkUp(0, 2)),
    ];
    let ts = FaultTs::new(&prog, &edges, events).unwrap();

    // The same route-validity statement as the churn campaign above, on
    // fault states: loop freedom, bestPathStrong, aggregate consistency.
    let route_validity = |s: &FaultState| -> bool {
        let db = s.database();
        let simple = db.relation("path").all(|t| {
            let p = t[2].as_list().expect("path component is a list");
            let mut seen = BTreeSet::new();
            p.iter().all(|n| seen.insert(n)) && p.first() == Some(&t[0]) && p.last() == Some(&t[1])
        });
        let strong = db.relation("bestPath").all(|b| {
            db.relation("path")
                .filter(|p| p[0] == b[0] && p[1] == b[1])
                .all(|p| p[3] >= b[3])
        });
        let consistent = db.relation("bestPath").all(|b| {
            db.contains(
                "bestPathCost",
                &vec![b[0].clone(), b[1].clone(), b[3].clone()],
            )
        });
        simple && strong && consistent
    };

    let visited = check_invariant(&ts, ExploreOptions::default(), route_validity)
        .unwrap_or_else(|e| panic!("fault campaign violates route validity: {e:?}"));
    assert!(
        !ts.truncated(),
        "exploration was pruned: {:?}",
        ts.prune_error()
    );
    // Preconditions gate restart-after-crash and up-after-down, so the
    // reachable applied-subsets number 3 x 3.
    assert!(visited >= 9, "all gated fault subsets reached: {visited}");

    // Confluence: every fully-drained interleaving (all faults healed)
    // returns to the loss-free fixpoint.  Drained states keep duplicate
    // self-loop successors, so we filter by campaign completion rather
    // than using stable_states.
    let ex = explore(&ts, ExploreOptions::default());
    let want = ndlog::eval_program(&prog).unwrap();
    let drained: Vec<_> = ex.states.iter().filter(|s| s.applied.len() == 4).collect();
    assert!(!drained.is_empty());
    for s in drained {
        assert_eq!(
            s.database(),
            want,
            "healed campaign matches the loss-free fixpoint"
        );
    }
}

/// Proof logs record every step with goal counts, supporting the EXP-1/5
/// accounting.
#[test]
fn proof_logs_are_complete() {
    let th = fvn::path_vector_theory();
    let t = th.find_theorem("bestPathStrong").unwrap();
    let r = fvn_logic::prove(&th, t).unwrap();
    assert!(r.proved);
    assert_eq!(r.log.len(), r.user_steps + r.automated_steps);
    assert_eq!(r.log.last().unwrap().goals_open, 0);
    assert!(r.log.iter().all(|s| !s.command.is_empty()));
}
