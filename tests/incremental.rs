//! Integration tests for the incremental maintenance subsystem (DESIGN.md
//! §5): delta-driven updates must beat epoch recomputation on realistic
//! churn while producing byte-identical databases, both centrally and
//! distributed over the simulator.

use ndlog::incremental::{IncrementalEngine, TupleDelta};
use ndlog::{eval_program, Evaluator, Value};
use netsim::{SimConfig, Topology};

/// A 50-node binary tree with redundant chords — sparse like a real ISP
/// topology, but with alternate routes so failures are survivable.
fn topo50() -> Topology {
    let mut t = Topology::binary_tree(50);
    t.add_edge(10, 40, 1);
    t.add_edge(7, 23, 1);
    t.add_edge(3, 12, 1);
    t
}

fn link(a: u32, b: u32, c: i64) -> Vec<Value> {
    vec![Value::Addr(a), Value::Addr(b), Value::Int(c)]
}

fn fail_deltas(a: u32, b: u32, c: i64) -> Vec<TupleDelta> {
    vec![
        TupleDelta::remove("link", link(a, b, c)),
        TupleDelta::remove("link", link(b, a, c)),
    ]
}

/// The acceptance criterion: after a single link failure on a ≥50-node
/// topology, incremental convergence performs strictly fewer rule
/// derivations than epoch recomputation — and reaches the same fixpoint.
#[test]
fn incremental_beats_epoch_on_50_node_link_failure() {
    let topo = topo50();
    assert!(topo.num_nodes() >= 50);
    let mut prog = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut prog, &topo.edge_list());
    let mut engine = IncrementalEngine::new(&prog).expect("initial fixpoint");

    // Fail the redundant chord 10-40: the network survives on tree routes,
    // and exactly the paths through the chord are retracted.
    let out = engine.apply(&fail_deltas(10, 40, 1)).expect("maintenance");
    assert!(
        out.stats.deleted > 0,
        "a failure must retract derived routes"
    );

    // Epoch oracle: full semi-naive evaluation over the failed topology.
    let mut failed = topo.clone();
    failed.remove_edge(10, 40);
    let mut failed_prog = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut failed_prog, &failed.edge_list());
    let ev = Evaluator::new(&failed_prog).unwrap();
    let mut db = ev.base_database(&failed_prog);
    let epoch = ev.run(&mut db).unwrap();

    assert_eq!(
        engine.database(),
        db.to_named(ev.symbols()),
        "incremental and epoch results must coincide"
    );
    assert!(
        out.stats.derivations < epoch.derivations,
        "incremental must do strictly fewer derivations: {} vs {}",
        out.stats.derivations,
        epoch.derivations
    );
}

/// A full flap (down then up) restores the original fixpoint, and both
/// batches together still cost less than one epoch recomputation.
#[test]
fn flap_cycle_restores_fixpoint_for_less_than_one_epoch() {
    let topo = topo50();
    let mut prog = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut prog, &topo.edge_list());
    let original = eval_program(&prog).unwrap();
    let mut engine = IncrementalEngine::new(&prog).unwrap();
    let epoch = engine.init_stats().derivations;

    let down = engine.apply(&fail_deltas(10, 40, 1)).unwrap();
    let up = engine
        .apply(&[
            TupleDelta::insert("link", link(10, 40, 1)),
            TupleDelta::insert("link", link(40, 10, 1)),
        ])
        .unwrap();
    assert_eq!(
        engine.database(),
        original,
        "flap must restore the original fixpoint"
    );
    assert!(
        down.stats.derivations + up.stats.derivations < epoch,
        "down+up ({} + {}) must cost less than one epoch ({})",
        down.stats.derivations,
        up.stats.derivations,
        epoch
    );
}

/// Distributed churn: the runtime consumes LinkChange events as tuple
/// deltas and still quiesces to the centralized fixpoint of the final
/// topology.
#[test]
fn distributed_runtime_absorbs_link_churn() {
    let topo = Topology::random_connected(8, 0.35, 3, 17);
    let mut prog = ndlog::programs::path_vector();
    ndlog_runtime::link_facts(&mut prog, &topo);
    let mut rt = ndlog_runtime::DistRuntime::new(&prog, &topo, SimConfig::default()).unwrap();
    // Fail one edge mid-run and let another flap down/up.
    let edges = topo.edge_list();
    let (fa, fb, _) = edges[0];
    let (ga, gb, _) = edges[edges.len() / 2];
    rt.schedule_links(&[netsim::LinkSchedule::down(60, fa, fb)]);
    if (ga, gb) != (fa, fb) {
        rt.schedule_links(&topo.flap_schedule(ga, gb, 200, 80, 1));
    }
    let stats = rt.run();
    assert!(stats.quiescent, "churned run must quiesce");

    let mut final_topo = topo.clone();
    final_topo.remove_edge(fa, fb);
    let mut final_prog = ndlog::programs::path_vector();
    ndlog_runtime::link_facts(&mut final_prog, &final_topo);
    let want = eval_program(&final_prog).unwrap();
    let got = rt.global_database();
    for pred in ["path", "bestPathCost", "bestPath"] {
        let c: Vec<_> = want.relation(pred).cloned().collect();
        let d: Vec<_> = got.relation(pred).cloned().collect();
        assert_eq!(c, d, "{pred} differs from the final-topology fixpoint");
    }
}

/// The model checker covers every interleaving of a churn schedule and
/// certifies the safety invariant throughout (DESIGN.md §5).
#[test]
fn churn_interleavings_keep_routes_loop_free() {
    let mut prog = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut prog, &[(0, 1, 1), (1, 2, 2), (0, 2, 9), (2, 3, 1)]);
    // The churn schedule is a typed `Update` stream — the same vocabulary
    // sessions and the runtime consume.
    let ts = fvn_mc::ChurnTs::new(
        &prog,
        vec![
            ("fail01".into(), vec![ndlog::Update::link_down(0, 1, 1)]),
            ("fail23".into(), vec![ndlog::Update::link_down(2, 3, 1)]),
            ("add13".into(), vec![ndlog::Update::link_up(1, 3, 2)]),
        ],
    )
    .unwrap();
    // Along every maintenance order: no path revisits a node.
    let visited = fvn_mc::check_invariant(&ts, fvn_mc::ExploreOptions::default(), |s| {
        s.database().relation("path").all(|t| {
            let p = t[2].as_list().unwrap();
            let mut seen = std::collections::BTreeSet::new();
            p.iter().all(|v| seen.insert(v.clone()))
        })
    })
    .unwrap();
    assert_eq!(visited, 8, "all 2^3 churn subsets are reachable states");
}
