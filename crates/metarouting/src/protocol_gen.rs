//! Metarouting → NDlog translation (the §4.1 research direction:
//! *"given the close logical relationships between metarouting algebraic
//! objects and declarative networking specifications, a property-preserving
//! translation can be achieved"*).
//!
//! The translation flattens the algebra into its leaf slots and emits a
//! generalized path-vector NDlog program:
//!
//! * one signature column per leaf;
//! * per-leaf `⊕` literals (arithmetic for additive leaves, `f_min` for
//!   widest, overwrite for local-pref, a tabulated `grApply` relation for
//!   Gao–Rexford — finite functions become EDB facts);
//! * lexicographic route selection encoded as a single `min` aggregate over
//!   a rank expression (each leaf's slot scaled by the ranges of the slots
//!   after it, bandwidth slots flipped so "smaller = better" holds
//!   uniformly).
//!
//! Property preservation is checked by differential testing: the generated
//! program's `bestRoute` must equal exhaustive path enumeration over the
//! algebra ([`crate::vectoring::optimal_by_enumeration`]).

use crate::algebra::{gr, AlgebraSpec, Sig};
use crate::vectoring::EdgeLabels;
use ndlog::ast::Program;
use ndlog::parse_program;
use netsim::Topology;
use std::fmt::Write as _;

/// A generated NDlog protocol.
#[derive(Debug, Clone)]
pub struct GeneratedProtocol {
    /// The algebra it implements.
    pub spec: AlgebraSpec,
    /// Flattened leaf algebras, in slot order.
    pub leaves: Vec<AlgebraSpec>,
    /// The NDlog program (rules only; facts added separately).
    pub program: Program,
    /// The program source text (for inspection / documentation).
    pub source: String,
}

/// Flatten a spec into its leaves, left to right.
pub fn leaves(spec: &AlgebraSpec) -> Vec<AlgebraSpec> {
    match spec {
        AlgebraSpec::Lex(a, b) => {
            let mut v = leaves(a);
            v.extend(leaves(b));
            v
        }
        leaf => vec![leaf.clone()],
    }
}

/// Value range (number of distinct slot values) of a leaf, used for rank
/// scaling.
fn leaf_range(leaf: &AlgebraSpec) -> i64 {
    match leaf {
        AlgebraSpec::HopCount { cap } => cap + 1,
        AlgebraSpec::AddCost { cap, .. } => cap + 1,
        AlgebraSpec::Widest { max } => max + 1,
        AlgebraSpec::LocalPref { levels } => levels + 1,
        AlgebraSpec::GaoRexford => 4,
        AlgebraSpec::Lex(..) => unreachable!("leaves are not Lex"),
    }
}

/// Generate the NDlog program implementing `spec`'s vectoring protocol.
pub fn generate(spec: &AlgebraSpec) -> GeneratedProtocol {
    let ls = leaves(spec);
    let k = ls.len();
    let cols = |prefix: &str| {
        (1..=k)
            .map(|i| format!("{prefix}{i}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut src = String::new();

    // r0: origination at the destination.
    let origin: Sig = spec.origin();
    let origin_cols = origin
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",");
    writeln!(
        src,
        "r0 route(@D,D,P,{origin_cols}) :- dest(@D), P = f_append([], D)."
    )
    .unwrap();

    // r1: extension over a labelled link.
    let mut lits = Vec::new();
    lits.push(format!("linkL(@S,Z,{})", cols("L")));
    lits.push(format!("route(@Z,D,P2,{})", cols("V")));
    lits.push("f_inPath(P2,S) = false".to_string());
    lits.push("P = f_concatPath(S,P2)".to_string());
    for (i, leaf) in ls.iter().enumerate() {
        let (l, v, t) = (
            format!("L{}", i + 1),
            format!("V{}", i + 1),
            format!("T{}", i + 1),
        );
        match leaf {
            AlgebraSpec::HopCount { cap } => {
                lits.push(format!("{t} = {v} + 1"));
                lits.push(format!("{t} < {cap}"));
            }
            AlgebraSpec::AddCost { cap, .. } => {
                lits.push(format!("{t} = {v} + {l}"));
                lits.push(format!("{t} < {cap}"));
            }
            AlgebraSpec::Widest { .. } => {
                lits.push(format!("{t} = f_min({l},{v})"));
                lits.push(format!("{t} > 0"));
            }
            AlgebraSpec::LocalPref { levels } => {
                lits.push(format!("{t} = {l}"));
                lits.push(format!("{t} < {levels}"));
            }
            AlgebraSpec::GaoRexford => {
                lits.push(format!("grApply({l},{v},{t})"));
                lits.push(format!("{t} < {}", gr::PHI));
            }
            AlgebraSpec::Lex(..) => unreachable!(),
        }
    }
    writeln!(
        src,
        "r1 route(@S,D,P,{}) :- {}.",
        cols("T"),
        lits.join(", ")
    )
    .unwrap();

    // r2: rank each route with a single lexicographic score.
    // weight_i = product of ranges of leaves after i.
    let mut weights = vec![1i64; k];
    for i in (0..k.saturating_sub(1)).rev() {
        weights[i] = weights[i + 1] * leaf_range(&ls[i + 1]);
    }
    let mut rank_terms = Vec::new();
    for (i, leaf) in ls.iter().enumerate() {
        let t = format!("T{}", i + 1);
        let flipped = match leaf {
            AlgebraSpec::Widest { max } => format!("({max} - {t})"),
            _ => t,
        };
        if weights[i] == 1 {
            rank_terms.push(flipped);
        } else {
            rank_terms.push(format!("{flipped} * {}", weights[i]));
        }
    }
    writeln!(
        src,
        "r2 cand(@S,D,P,Cmb,{}) :- route(@S,D,P,{}), Cmb = {}.",
        cols("T"),
        cols("T"),
        rank_terms.join(" + ")
    )
    .unwrap();

    // r3/r4: lexicographic best selection via min aggregate.
    writeln!(
        src,
        "r3 bestCand(@S,D,min<Cmb>) :- cand(@S,D,P,Cmb,{}).",
        cols("T")
    )
    .unwrap();
    writeln!(
        src,
        "r4 bestRoute(@S,D,P,{}) :- bestCand(@S,D,Cmb), cand(@S,D,P,Cmb,{}).",
        cols("T"),
        cols("T")
    )
    .unwrap();

    let program = parse_program(&src).expect("generated NDlog must parse");
    GeneratedProtocol {
        spec: spec.clone(),
        leaves: ls,
        program,
        source: src,
    }
}

/// Add topology facts: `dest(@dst)`, one `linkL(@learner, via, labels...)`
/// per labelled learning direction, and the `grApply` table when a
/// Gao–Rexford leaf is present.
pub fn add_topology_facts(
    gp: &mut GeneratedProtocol,
    topo: &Topology,
    labels: &EdgeLabels,
    dest: u32,
) {
    use ndlog::ast::{Atom, Term};
    use ndlog::Value;

    gp.program
        .add_fact(Atom::located("dest", vec![Term::Const(Value::Addr(dest))]));

    for (a, b, _) in topo.edges() {
        for (learner, via) in [(a, b), (b, a)] {
            if let Some(label) = labels.get(learner, via) {
                let mut args = vec![
                    Term::Const(Value::Addr(learner)),
                    Term::Const(Value::Addr(via)),
                ];
                args.extend(label.iter().map(|v| Term::Const(Value::Int(*v))));
                gp.program.add_fact(Atom::located("linkL", args));
            }
        }
    }

    if gp
        .leaves
        .iter()
        .any(|l| matches!(l, AlgebraSpec::GaoRexford))
    {
        let g = AlgebraSpec::GaoRexford;
        for l in g.sample_labels() {
            for s in g.sample_sigs() {
                let out = g.apply(&l, &s);
                gp.program.add_fact(Atom::plain(
                    "grApply",
                    vec![
                        Term::Const(Value::Int(l[0])),
                        Term::Const(Value::Int(s[0])),
                        Term::Const(Value::Int(out[0])),
                    ],
                ));
            }
        }
    }
}

/// Extract each node's best signature toward `dest` from an evaluated
/// database (index = node id; `None` = no permitted route).
pub fn best_signatures(
    db: &ndlog::Database,
    topo: &Topology,
    dest: u32,
    k: usize,
) -> Vec<Option<Sig>> {
    use ndlog::Value;
    let mut out: Vec<Option<Sig>> = vec![None; topo.num_nodes() as usize];
    for t in db.relation("bestRoute") {
        let s = t[0].as_addr().unwrap();
        let d = t[1].as_addr().unwrap();
        if d != dest {
            continue;
        }
        let sig: Sig = (0..k)
            .map(|i| match &t[3 + i] {
                Value::Int(v) => *v,
                other => panic!("non-integer signature column {other}"),
            })
            .collect();
        out[s as usize] = Some(sig);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectoring::optimal_by_enumeration;
    use ndlog::eval::{EvalOptions, Evaluator};

    fn eval(gp: &GeneratedProtocol) -> ndlog::Database {
        let ev = Evaluator::with_options(
            &gp.program,
            EvalOptions {
                max_iterations: 100_000,
                max_tuples: 2_000_000,
            },
        )
        .unwrap();
        let mut db = ev.base_database(&gp.program);
        ev.run(&mut db).unwrap();
        db.to_named(ev.symbols())
    }

    fn check_against_enumeration(spec: &AlgebraSpec, topo: &Topology, labels: &EdgeLabels) {
        let mut gp = generate(spec);
        add_topology_facts(&mut gp, topo, labels, 0);
        let db = eval(&gp);
        let got = best_signatures(&db, topo, 0, gp.leaves.len());
        let mut want = optimal_by_enumeration(spec, topo, labels);
        want[0] = None; // the generated program has no self-route at dest...
                        // ... except the origination row.
        let origin_at_dest = got[0].clone();
        assert_eq!(
            origin_at_dest,
            Some(spec.origin()),
            "dest keeps its origination"
        );
        for v in 1..topo.num_nodes() as usize {
            assert_eq!(got[v], want[v], "node {v} under {spec}");
        }
    }

    #[test]
    fn generated_add_cost_matches_enumeration_and_dijkstra() {
        let topo = Topology::random_connected(7, 0.4, 3, 5);
        let labels = EdgeLabels::from_costs(&topo);
        let spec = AlgebraSpec::AddCost {
            max_label: 3,
            cap: 64,
        };
        check_against_enumeration(&spec, &topo, &labels);
        // And against Dijkstra directly.
        let mut gp = generate(&spec);
        add_topology_facts(&mut gp, &topo, &labels, 0);
        let db = eval(&gp);
        let got = best_signatures(&db, &topo, 0, 1);
        let truth = topo.shortest_paths(0);
        for v in 1..topo.num_nodes() {
            assert_eq!(got[v as usize].as_ref().unwrap()[0], truth[&v]);
        }
    }

    #[test]
    fn generated_widest_matches_enumeration() {
        let topo = Topology::random_connected(6, 0.5, 5, 8);
        let labels = EdgeLabels::from_costs(&topo);
        check_against_enumeration(&AlgebraSpec::Widest { max: 5 }, &topo, &labels);
    }

    #[test]
    fn generated_bgp_system_matches_enumeration() {
        // lexProduct[LP, RC]: declarative evaluation derives ALL permitted
        // paths and therefore finds the true lexicographic optimum — the
        // correctness-by-construction half of the paper's story.
        let spec = AlgebraSpec::bgp_system();
        let mut topo = Topology::empty(4);
        topo.add_edge(0, 1, 1);
        topo.add_edge(0, 2, 1);
        topo.add_edge(1, 2, 1);
        topo.add_edge(2, 3, 1);
        let mut labels = EdgeLabels::default();
        labels.directed(1, 0, vec![2, 1]);
        labels.directed(1, 2, vec![0, 1]);
        labels.directed(2, 0, vec![2, 1]);
        labels.directed(2, 1, vec![0, 1]);
        labels.directed(0, 1, vec![1, 1]);
        labels.directed(0, 2, vec![1, 1]);
        labels.directed(3, 2, vec![1, 2]);
        labels.directed(2, 3, vec![1, 2]);
        check_against_enumeration(&spec, &topo, &labels);
    }

    #[test]
    fn generated_gao_rexford_matches_enumeration() {
        use crate::algebra::gr;
        let mut topo = Topology::empty(4);
        topo.add_edge(0, 1, 1);
        topo.add_edge(0, 2, 1);
        topo.add_edge(1, 3, 1);
        topo.add_edge(2, 3, 1);
        let mut labels = EdgeLabels::default();
        // 0 is customer of 1 and 2; 3 is provider of 1, peer of 2.
        labels.directed(1, 0, vec![gr::TO_CUSTOMER]);
        labels.directed(2, 0, vec![gr::TO_CUSTOMER]);
        labels.directed(3, 1, vec![gr::TO_CUSTOMER]);
        labels.directed(1, 3, vec![gr::TO_PROVIDER]);
        labels.directed(3, 2, vec![gr::TO_PEER]);
        labels.directed(2, 3, vec![gr::TO_PEER]);
        labels.directed(0, 1, vec![gr::TO_PROVIDER]);
        labels.directed(0, 2, vec![gr::TO_PROVIDER]);
        check_against_enumeration(&AlgebraSpec::GaoRexford, &topo, &labels);
    }

    #[test]
    fn generated_source_mirrors_paper_shape() {
        let gp = generate(&AlgebraSpec::bgp_system());
        assert!(gp.source.contains("f_inPath(P2,S) = false"));
        assert!(gp.source.contains("f_concatPath(S,P2)"));
        assert!(gp.source.contains("min<Cmb>"));
        assert_eq!(gp.leaves.len(), 2);
        // The localizer accepts the generated rules (distributable).
        assert!(ndlog::localize::localize_program(&gp.program).is_ok());
    }

    #[test]
    fn rank_scaling_orders_lexicographically() {
        // For lex(LP levels=4, AddCost cap=64): rank = LP*65 + C; any LP
        // difference dominates any cost difference below the cap.
        let gp = generate(&AlgebraSpec::bgp_system());
        assert!(gp.source.contains("* 65"), "{}", gp.source);
    }
}
