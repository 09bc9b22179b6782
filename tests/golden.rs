//! Golden snapshots pinning evaluation semantics across engine refactors.
//!
//! Each scenario runs one of the `ndlog::programs` examples on a fixed
//! topology through the **incremental engine** (initial fixpoint plus a
//! fixed churn sequence) and renders the final database — every relation,
//! every tuple, in deterministic sorted order — as text.  The rendering is
//! compared byte-for-byte against a committed snapshot generated *before*
//! the interned/dense-store refactor, so any representation change that
//! perturbs results (or their deterministic order) fails loudly.
//!
//! The sharded engine must reproduce the same snapshots at every shard
//! count through the persistent worker pool.
//!
//! Regenerate (only for intentional semantic changes) with:
//! `UPDATE_GOLDEN=1 cargo test --test golden`

use ndlog::ast::{Atom, Term};
use ndlog::incremental::{IncrementalEngine, TupleDelta};
use ndlog::{eval_program, Database, Evaluator, Program, Query, Session, Update, Value};
use ndlog_runtime::DistRuntime;
use netsim::{CrashSchedule, SimConfig, Topology};
use std::fmt::Write as _;
use std::path::PathBuf;

fn render(db: &Database) -> String {
    let mut out = String::new();
    for pred in db.relations() {
        for t in db.relation(pred) {
            writeln!(out, "{pred}{}", ndlog::value::display_tuple(t)).unwrap();
        }
    }
    out
}

fn link(a: u32, b: u32, c: i64) -> Vec<Value> {
    vec![Value::Addr(a), Value::Addr(b), Value::Int(c)]
}

fn flap(a: u32, b: u32, c: i64, up: bool) -> Vec<TupleDelta> {
    let d = if up { 1 } else { -1 };
    vec![
        TupleDelta {
            pred: "link".into(),
            tuple: link(a, b, c),
            delta: d,
        },
        TupleDelta {
            pred: "link".into(),
            tuple: link(b, a, c),
            delta: d,
        },
    ]
}

/// A named scenario: program + churn schedule.
fn scenarios() -> Vec<(&'static str, Program, Vec<Vec<TupleDelta>>)> {
    let edges = [
        (0u32, 1u32, 1i64),
        (1, 2, 2),
        (2, 3, 1),
        (3, 4, 1),
        (0, 4, 9),
        (1, 3, 4),
    ];
    let mut pv = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut pv, &edges);
    let mut reach = ndlog::programs::reachability();
    ndlog::programs::add_links(&mut reach, &edges);
    let mut dv = ndlog::programs::distance_vector(16);
    ndlog::programs::add_links(&mut dv, &edges);

    let churn = vec![
        flap(1, 2, 2, false),
        flap(0, 4, 9, false),
        flap(1, 2, 2, true),
        flap(2, 3, 1, false),
    ];
    vec![
        ("path_vector", pv, churn.clone()),
        ("reachability", reach, churn.clone()),
        ("distance_vector", dv, churn),
    ]
}

/// Dense-SCC deletion workloads: one strongly-connected component under
/// link deletions that range from fully redundant (no visible change — the
/// adversarial case for delete-driven maintenance) to support-destroying,
/// plus a recovery.  Blessed from the from-scratch kernel over each
/// stage's fact set; z-set maintenance must reproduce every stage
/// byte-for-byte.
fn dense_scc_scenarios() -> Vec<(&'static str, Program, Vec<Vec<TupleDelta>>)> {
    let del = |a: u32, b: u32| TupleDelta {
        pred: "link".into(),
        tuple: link(a, b, 1),
        delta: -1,
    };
    let add = |a: u32, b: u32| TupleDelta {
        pred: "link".into(),
        tuple: link(a, b, 1),
        delta: 1,
    };

    // Directed 8-ring plus a stride-3 chord out of every node: one dense SCC.
    let ring8: Vec<(u32, u32, i64)> = (0..8u32).map(|i| (i, (i + 1) % 8, 1)).collect();
    let chords8: Vec<(u32, u32, i64)> = (0..8u32).map(|i| (i, (i + 3) % 8, 1)).collect();
    let mut reach = ndlog::programs::reachability();
    ndlog::programs::add_directed_links(&mut reach, &ring8);
    ndlog::programs::add_directed_links(&mut reach, &chords8);
    let reach_churn = vec![
        vec![del(1, 4)],                                  // redundant chord
        vec![del(0, 3), del(2, 5), del(4, 7), del(6, 1)], // thin the chords
        vec![del(2, 3)],                                  // node 2 loses its last out-edge
        vec![add(2, 3)],                                  // recovery
    ];

    // Complete 5-node digraph under the RIP-bounded distance vector: the
    // aggregate (min-cost) strata ride the dense component too.
    let complete5: Vec<(u32, u32, i64)> = (0..5u32)
        .flat_map(|a| (0..5u32).filter(move |&b| b != a).map(move |b| (a, b, 1)))
        .collect();
    let mut dv = ndlog::programs::distance_vector(4);
    ndlog::programs::add_directed_links(&mut dv, &complete5);
    let dv_churn = vec![
        vec![del(0, 1)], // direct route lost, two-hop survives
        vec![del(1, 2), del(2, 1)],
        vec![add(0, 1)], // recovery
    ];

    vec![
        ("zset_dense_scc_reachability", reach, reach_churn),
        ("zset_dense_scc_distance_vector", dv, dv_churn),
    ]
}

/// Apply a churn batch to a program's ground facts, so the from-scratch
/// evaluator can be run on the fact set of every stage.
fn apply_to_facts(prog: &mut Program, batch: &[TupleDelta]) {
    for d in batch {
        let consts = || d.tuple.iter().cloned().map(Term::Const).collect();
        if d.delta > 0 {
            prog.add_fact(Atom::located(d.pred.clone(), consts()));
        } else if let Some(i) = prog
            .facts
            .iter()
            .position(|f| f.pred == d.pred && f.const_tuple().as_ref() == Some(&d.tuple))
        {
            prog.facts.remove(i);
        }
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

#[test]
fn incremental_engine_matches_golden_snapshots() {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some();
    for (name, prog, churn) in scenarios() {
        let mut engine = IncrementalEngine::new(&prog).unwrap();
        let mut stage_prog = prog.clone();
        let mut stages = String::new();
        writeln!(stages, "== initial ==").unwrap();
        assert_eq!(engine.database(), eval_program(&stage_prog).unwrap());
        stages.push_str(&render(&engine.database()));
        for (i, batch) in churn.iter().enumerate() {
            engine.apply(batch).unwrap();
            apply_to_facts(&mut stage_prog, batch);
            assert_eq!(
                engine.database(),
                eval_program(&stage_prog).unwrap(),
                "{name}: batch {i} diverges from a from-scratch run on its fact set"
            );
            writeln!(stages, "== after batch {i} ==").unwrap();
            stages.push_str(&render(&engine.database()));
        }
        let path = golden_path(name);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &stages).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        assert_eq!(
            stages, want,
            "{name}: engine output diverged from the pre-refactor snapshot \
             (UPDATE_GOLDEN=1 to regenerate after an intentional change)"
        );
    }
}

/// Commit one golden churn batch through a session transaction.
fn commit(session: &mut Session, batch: &[TupleDelta]) -> ndlog::CommitOutcome {
    session
        .txn()
        .extend(batch.iter().map(Update::from))
        .commit()
        .unwrap()
}

#[test]
fn sharded_session_matches_golden_snapshots_at_every_shard_count() {
    for (name, prog, churn) in scenarios() {
        let want = std::fs::read_to_string(golden_path(name)).unwrap_or_default();
        if want.is_empty() {
            // Bless run hasn't happened yet; the incremental test reports it.
            continue;
        }
        for shards in [1usize, 2, 4, 8] {
            let mut session = Session::open(&prog).sharding(shards).build().unwrap();
            let mut stages = String::new();
            writeln!(stages, "== initial ==").unwrap();
            stages.push_str(&render(&session.database()));
            for (i, batch) in churn.iter().enumerate() {
                commit(&mut session, batch);
                writeln!(stages, "== after batch {i} ==").unwrap();
                stages.push_str(&render(&session.database()));
            }
            assert_eq!(
                stages, want,
                "{name}: {shards}-shard run diverges from the golden snapshot"
            );
        }
    }
}

/// Z-set maintenance on the dense-SCC deletion workloads: every staged
/// state must equal a from-scratch `eval_program` run over that stage's
/// fact set and the committed snapshot, at shard counts 1/2/4/8 through
/// the session layer.  `UPDATE_GOLDEN=1` blesses the `eval_program`
/// rendering.
#[test]
fn zset_dense_scc_deletions_match_golden_snapshots() {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some();
    for (name, prog, churn) in dense_scc_scenarios() {
        // The reference: from-scratch evaluation of every stage's facts.
        let mut stage_prog = prog.clone();
        let mut oracle = vec![eval_program(&stage_prog).unwrap()];
        for batch in &churn {
            apply_to_facts(&mut stage_prog, batch);
            oracle.push(eval_program(&stage_prog).unwrap());
        }
        let mut rendered = String::new();
        for (i, db) in oracle.iter().enumerate() {
            match i {
                0 => writeln!(rendered, "== initial ==").unwrap(),
                _ => writeln!(rendered, "== after batch {} ==", i - 1).unwrap(),
            }
            rendered.push_str(&render(db));
        }
        let path = golden_path(name);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        assert_eq!(
            rendered, want,
            "{name}: from-scratch evaluation diverged from the blessed snapshot \
             (UPDATE_GOLDEN=1 to regenerate after an intentional change)"
        );

        // `oracle` renders to the snapshot, so matching it stage by stage
        // matches the golden file.
        for shards in [1usize, 2, 4, 8] {
            let mut session = Session::open(&prog).sharding(shards).build().unwrap();
            assert_eq!(
                session.database(),
                oracle[0],
                "{name}: z-set at {shards} shards diverges initially"
            );
            for (i, batch) in churn.iter().enumerate() {
                commit(&mut session, batch);
                assert_eq!(
                    session.database(),
                    oracle[i + 1],
                    "{name}: z-set at {shards} shards diverges after batch {i}"
                );
            }
        }
    }
}

/// The from-scratch kernel's work counters, pinned: `EvalStats` of
/// `Evaluator::run` at every stage of each golden scenario, and the
/// `QueryStats` of a fixed set of point, partial and scan queries answered
/// by an incremental session driven through the same churn.  Join order
/// and index use are execution details of the kernel; every firing, round
/// and demanded tuple must stay exactly as blessed.
#[test]
fn eval_and_query_stats_match_golden_snapshot() {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some();
    let n = Value::Addr;
    let queries = |name: &str| -> Vec<Query> {
        match name {
            "path_vector" => vec![
                Query::point("bestPathCost", &[n(0), n(4), Value::Int(4)]),
                Query::on("bestPath").bind(n(0)).bind(n(3)).free().free(),
                Query::on("path").bind(n(1)).free().free().free(),
                Query::on("bestPathCost").free().bind(n(2)).free(),
                Query::scan("bestPath", 4),
            ],
            "reachability" => vec![
                Query::point("reachable", &[n(0), n(3)]),
                Query::on("reachable").bind(n(2)).free(),
                Query::on("reachable").free().bind(n(4)),
                Query::scan("reachable", 2),
            ],
            "distance_vector" => vec![
                Query::point("bestHopCost", &[n(0), n(4), Value::Int(4)]),
                Query::on("hop").bind(n(0)).bind(n(4)).bind(n(1)).free(),
                Query::on("bestHop").bind(n(3)).free().free().free(),
                Query::scan("bestHopCost", 3),
            ],
            other => panic!("no queries for scenario {other}"),
        }
    };
    let mut out = String::new();
    for (name, prog, churn) in scenarios() {
        let mut session = Session::open(&prog).build().unwrap();
        let mut stage_prog = prog.clone();
        for stage in 0..=churn.len() {
            if stage > 0 {
                commit(&mut session, &churn[stage - 1]);
                apply_to_facts(&mut stage_prog, &churn[stage - 1]);
            }
            let ev = Evaluator::new(&stage_prog).unwrap();
            let mut db = ev.base_database(&stage_prog);
            let s = ev.run(&mut db).unwrap();
            writeln!(
                out,
                "{name} stage {stage} run iterations={} derivations={} new_tuples={}",
                s.iterations, s.derivations, s.new_tuples
            )
            .unwrap();
            for q in queries(name) {
                let r = session.query(&q).unwrap();
                let s = r.stats;
                writeln!(
                    out,
                    "{name} stage {stage} query {q} rewritten={} iterations={} derivations={} \
                     demanded={} seeded={} answers={}",
                    s.rewritten, s.iterations, s.derivations, s.demanded, s.seeded, s.answers
                )
                .unwrap();
            }
        }
    }
    let path = golden_path("eval_stats");
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        out, want,
        "kernel work counters diverged from the blessed snapshot \
         (UPDATE_GOLDEN=1 to regenerate after an intentional change)"
    );
}

/// One blessed **batched** run: the path-vector scenario driven through a
/// 4-tick batch window, two churn batches committed per window, rendered at
/// every window close.  Pins the window machinery end-to-end — the merged
/// flush cadence, the intermediate states it exposes, and the final
/// database (which must equal the unbatched engine's).
#[test]
fn batched_session_matches_golden_snapshot() {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some();
    let (_, prog, churn) = scenarios().swap_remove(0);
    let mut session = Session::open(&prog).batch_window(4).build().unwrap();
    let mut stages = String::new();
    writeln!(stages, "== initial ==").unwrap();
    stages.push_str(&render(&session.database()));
    for (w, pair) in churn.chunks(2).enumerate() {
        for batch in pair {
            let out = commit(&mut session, batch);
            assert!(!out.flushed, "commits buffer inside the open window");
        }
        let outs = session.advance(4).unwrap();
        assert_eq!(outs.len(), 1, "exactly one merged flush per window");
        writeln!(stages, "== after window {w} ==").unwrap();
        stages.push_str(&render(&session.database()));
    }
    let path = golden_path("path_vector_batched");
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &stages).unwrap();
    } else {
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        assert_eq!(
            stages, want,
            "batched session output diverged from the blessed snapshot \
             (UPDATE_GOLDEN=1 to regenerate after an intentional change)"
        );
    }
    // Batching never changes the drained fixpoint.
    let mut engine = IncrementalEngine::new(&scenarios().swap_remove(0).1).unwrap();
    for batch in &churn {
        engine.apply(batch).unwrap();
    }
    assert_eq!(session.database(), engine.database());
}

/// The native-operator recognizer (ISSUE 10), pinned against a blessed
/// snapshot: for a corpus of programs — both proven shapes, a left-linear
/// closure, and recursions that must *not* match (the guarded
/// distance-vector recursion, a nonlinear closure, a three-rule head) —
/// render exactly which strata get native plans.  Any recognizer change
/// that silently widens or narrows the matched set fails here.
///
/// The non-matching programs additionally pin runtime behavior: their
/// recursive strata must fall back (`ndlog_algo_fallbacks_total > 0`,
/// zero invocations), while the matched programs run native.
#[test]
fn native_recognizer_matches_golden_snapshot() {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some();
    let edges = [(0u32, 1u32, 1i64), (1, 2, 2), (2, 0, 3)];

    let mut corpus: Vec<(&'static str, Program)> = Vec::new();
    let mut reach = ndlog::programs::reachability();
    ndlog::programs::add_links(&mut reach, &edges);
    corpus.push(("reachability", reach));
    let mut pv = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut pv, &edges);
    corpus.push(("path_vector", pv));
    let mut dv = ndlog::programs::distance_vector(16);
    ndlog::programs::add_links(&mut dv, &edges);
    corpus.push(("distance_vector", dv));
    corpus.push((
        "left_linear_closure",
        ndlog::parse_program(
            "r1 anc(X,Y) :- parent(X,Y).\n\
             r2 anc(X,Y) :- anc(X,Z), parent(Z,Y).\n\
             parent(#0,#1). parent(#1,#2).",
        )
        .unwrap(),
    ));
    corpus.push((
        "nonlinear_closure",
        ndlog::parse_program(
            "r1 p(X,Y) :- e(X,Y).\n\
             r2 p(X,Y) :- p(X,Z), p(Z,Y).\n\
             e(#0,#1). e(#1,#2).",
        )
        .unwrap(),
    ));
    corpus.push((
        "three_rule_head",
        ndlog::parse_program(
            "r1 p(X,Y) :- e(X,Y).\n\
             r2 p(X,Y) :- e(X,Z), p(Z,Y).\n\
             r3 p(X,X) :- e(X,Y).\n\
             e(#0,#1). e(#1,#2).",
        )
        .unwrap(),
    ));

    let mut out = String::new();
    for (name, prog) in &corpus {
        writeln!(out, "== {name} ==").unwrap();
        let session = Session::open(prog).telemetry(true).build().unwrap();
        let plans = session
            .engine()
            .expect("incremental backend")
            .native_plan_descriptions();
        if plans.is_empty() {
            writeln!(out, "(no native plans; all strata semi-naive)").unwrap();
        }
        for p in &plans {
            writeln!(out, "{p}").unwrap();
        }

        // Runtime pin: drive one churn batch so every recursive stratum is
        // exercised, then check the counters agree with the plan set.
        let mut session = session;
        session
            .txn()
            .retract("link", link(0, 1, 1))
            .retract("link", link(1, 0, 1))
            .commit()
            .unwrap();
        let snap = session.metrics();
        let invocations = snap.counter("ndlog_algo_invocations_total").unwrap_or(0);
        let fallbacks = snap.counter("ndlog_algo_fallbacks_total").unwrap_or(0);
        if plans.is_empty() {
            assert_eq!(invocations, 0, "{name}: native op fired without a plan");
        }
        if ["distance_vector", "nonlinear_closure", "three_rule_head"].contains(name) {
            assert!(
                fallbacks > 0,
                "{name}: unmatched recursion must report fallbacks (got {fallbacks})"
            );
        }
        if ["reachability", "left_linear_closure"].contains(name) {
            assert!(
                invocations > 0,
                "{name}: matched closure must run native (got {invocations})"
            );
        }
    }

    let path = golden_path("native_recognizer");
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        out, want,
        "recognizer coverage diverged from the blessed snapshot \
         (UPDATE_GOLDEN=1 to regenerate after an intentional change)"
    );
}

/// Every node's local view after a fixed fault campaign on a lossy ring:
/// 10% loss, 5% duplication, node 1 crashing before its first checkpoint
/// (cold restart), node 2 crashing after one (warm restart), and node 3
/// crashing for good.  Pins each node's whole `database_at` — the auxiliary
/// relations of the localized program included — plus the simulator's
/// message and tick counts.
#[test]
fn runtime_local_view_matches_golden_snapshot() {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some();
    let topo = Topology::ring(4);
    let mut prog = ndlog::programs::path_vector();
    ndlog_runtime::link_facts(&mut prog, &topo);
    let cfg = SimConfig {
        loss: 0.1,
        duplication: 0.05,
        ..Default::default()
    };
    let mut rt = DistRuntime::open(&Session::open(&prog).checkpoint_every(16), &topo, cfg).unwrap();
    rt.schedule_crashes(&[
        CrashSchedule::crash(5, 1),
        CrashSchedule::restart(60, 1),
        CrashSchedule::crash(150, 2),
        CrashSchedule::restart(250, 2),
        CrashSchedule::crash(400, 3),
    ]);
    let stats = rt.run();
    assert!(stats.quiescent);
    let mut out = String::new();
    writeln!(
        out,
        "events {} messages {} dropped {} duplicated {} end_time {} converge {}",
        stats.events,
        stats.messages,
        stats.dropped,
        stats.duplicated,
        stats.end_time,
        stats.last_change
    )
    .unwrap();
    for v in 0..topo.num_nodes() {
        writeln!(out, "== node {v} ==").unwrap();
        let db = rt.database_at(v);
        out.push_str(&render(&db));
    }
    let path = golden_path("runtime_local_view");
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        out, want,
        "runtime local views diverged from the blessed snapshot \
         (UPDATE_GOLDEN=1 to regenerate after an intentional change)"
    );
}
