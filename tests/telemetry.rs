//! Telemetry integration tests: snapshot determinism under sharding and
//! provenance consistency (DESIGN.md §10).
//!
//! The determinism contract: counter families whose values are
//! **order-insensitive sums** (batches, derivations, net tuple churn,
//! session traffic, relation sizes) must render byte-identically at every
//! shard count — partitioning work across shard workers redistributes the
//! increments but never changes their total.  Maintenance round counts
//! and the z-set retraction-work histogram are also in the contract: every
//! round ends at a global barrier whatever the shard count, propagation
//! partitions sink calls exactly, and verification is single-threaded, so
//! they are identical at every shard count.  Schedule-dependent families
//! (phase timings, per-shard load splits, pool gauges) are excluded from
//! the golden rendering and covered by the weaker fixed-shard-count
//! reproducibility invariant below.
//!
//! Regenerate the blessed renderings (only for intentional metric-set
//! changes) with: `UPDATE_GOLDEN=1 cargo test --test telemetry`

use ndlog::incremental::TupleDelta;
use ndlog::telemetry::Snapshot;
use ndlog::{Program, Query, Session, Update, Value};
use proptest::prelude::*;
use std::path::PathBuf;

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

/// The golden scenarios: same topology and churn as `tests/golden.rs`.
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

/// Is this metric an order-insensitive family (identical at every shard
/// count)?  The explicit allow-list is the point: anything not named here
/// has no cross-shard determinism guarantee.
fn deterministic(name: &str) -> bool {
    [
        "ndlog_batches_total",
        "ndlog_derivations_total",
        "ndlog_maintenance_rounds_total",
        "ndlog_tuples_inserted_total",
        "ndlog_tuples_deleted_total",
        "session_txns_total",
        "session_updates_total",
        "session_flushes_total",
        "ndlog_zset_retraction_work",
        "ndlog_algo_invocations_total",
        "ndlog_algo_fallbacks_total",
        "ndlog_algo_output_tuples_total",
    ]
    .contains(&name)
        || name.starts_with("ndlog_relation_tuples{")
}

fn run_scenario(prog: &Program, churn: &[Vec<TupleDelta>], shards: usize) -> Snapshot {
    let mut session = Session::open(prog)
        .sharding(shards)
        .telemetry(true)
        .build()
        .unwrap();
    for batch in churn {
        session
            .txn()
            .extend(batch.iter().map(Update::from))
            .commit()
            .unwrap();
    }
    session.metrics()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("telemetry_{name}.txt"))
}

/// The rendered order-insensitive counter subset is byte-identical across
/// shard counts 1/2/4/8 and pinned against a blessed golden file.
#[test]
fn snapshot_rendering_is_identical_across_shard_counts() {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some();
    for (name, prog, churn) in scenarios() {
        let reference = run_scenario(&prog, &churn, 1).render_filtered(deterministic);
        for shards in [2usize, 4, 8] {
            let got = run_scenario(&prog, &churn, shards).render_filtered(deterministic);
            assert_eq!(
                reference, got,
                "{name}: {shards}-shard rendering diverges from 1-shard"
            );
        }
        let path = golden_path(name);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &reference).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        assert_eq!(
            reference, want,
            "{name}: telemetry rendering diverged from the blessed snapshot \
             (UPDATE_GOLDEN=1 to regenerate after an intentional change)"
        );
    }
}

/// At a *fixed* shard count every non-timing metric is deterministic:
/// repeating the identical run reproduces the identical snapshot, per-shard
/// load splits and pool gauges included.  (Across *different* shard counts
/// those families legitimately vary — the load split is the shard count's
/// partition of the work — which is exactly why the golden test above pins
/// only the order-insensitive subset.)
#[test]
fn repeated_runs_reproduce_identical_snapshots() {
    for (name, prog, churn) in scenarios() {
        for shards in [1usize, 4] {
            let not_timing = |n: &str| !n.ends_with("_ns");
            let a = run_scenario(&prog, &churn, shards).render_filtered(not_timing);
            let b = run_scenario(&prog, &churn, shards).render_filtered(not_timing);
            assert_eq!(
                a, b,
                "{name}: two identical {shards}-shard runs disagree on non-timing metrics"
            );
            assert!(
                a.contains("ndlog_shard_derivations_total{shard=\"0\"}"),
                "{name}: per-shard load series missing"
            );
        }
    }
}

/// Relation-size gauges always mirror the live database, refreshed at
/// snapshot time.
#[test]
fn relation_size_gauges_track_the_database() {
    let (_, prog, churn) = scenarios().swap_remove(0);
    let mut session = Session::open(&prog).telemetry(true).build().unwrap();
    for batch in &churn {
        session
            .txn()
            .extend(batch.iter().map(Update::from))
            .commit()
            .unwrap();
        let snap = session.metrics();
        let db = session.database();
        for pred in db.relations() {
            assert_eq!(
                snap.gauge(&format!("ndlog_relation_tuples{{rel=\"{pred}\"}}")),
                Some(db.len_of(pred) as i64),
                "gauge for {pred} is stale"
            );
        }
    }
}

/// Queries time their two phases on both backends, but their firings
/// stay in `QueryStats`: the engine's derivation and round counters, which
/// the ledger and the determinism contract read, do not move.
#[test]
fn queries_record_phase_timers_but_not_engine_counters() {
    let (_, prog, _) = scenarios().swap_remove(0);
    let q = Query::on("bestPath")
        .bind(Value::Addr(0))
        .bind(Value::Addr(3))
        .free()
        .free();
    for oracle in [false, true] {
        let builder = Session::open(&prog).telemetry(true);
        let session = if oracle {
            builder.oracle()
        } else {
            builder.build()
        }
        .unwrap();
        let before = session.metrics();
        let got = session.query(&q).unwrap();
        assert!(got.stats.derivations > 0 && got.stats.iterations > 0);
        let after = session.metrics();
        for family in ["ndlog_derivations_total", "ndlog_eval_rounds_total"] {
            assert_eq!(
                after.counter(family),
                before.counter(family),
                "{family} moved (oracle: {oracle})"
            );
        }
        for phase in ["ndlog_phase_query_seed_ns", "ndlog_phase_query_eval_ns"] {
            assert_eq!(
                after.histogram(phase).map(|h| h.count),
                Some(1),
                "{phase} (oracle: {oracle})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every tuple cited by an `explain()` derivation tree is visible in
    /// the engine (support-map consistent), on randomized path-vector
    /// churn: provenance never cites retracted or phantom tuples.
    #[test]
    fn explain_trees_cite_only_visible_tuples(
        seed in 0u64..40,
        toggles in prop::collection::vec(0usize..6, 0..6),
    ) {
        let topo = netsim::Topology::random_connected(8, 0.3, 3, seed);
        let mut prog = ndlog::programs::path_vector();
        ndlog::programs::add_links(&mut prog, &topo.edge_list());
        let mut session = Session::open(&prog).telemetry(true).build().unwrap();

        let edges = topo.edge_list();
        let mut present: Vec<bool> = edges.iter().map(|_| true).collect();
        for i in toggles {
            let (a, b, c) = edges[i % edges.len()];
            let idx = i % edges.len();
            present[idx] = !present[idx];
            let txn = session.txn();
            let txn = if present[idx] {
                txn.link_up(a, b, c)
            } else {
                txn.link_down(a, b, c)
            };
            txn.commit().unwrap();
        }

        for (pred, arity) in [("link", 3), ("path", 4), ("bestPathCost", 3), ("bestPath", 4)] {
            // One binding-pattern query addresses the whole relation: the
            // scan must yield exactly one explanation per visible tuple.
            let scanned = session.relation(pred);
            let trees = session.explain(&ndlog::Query::scan(pred, arity));
            prop_assert_eq!(trees.len(), scanned.len(), "one tree per visible {} tuple", pred);
            for why in &trees {
                for (p, t) in why.cited() {
                    prop_assert!(
                        session.contains(p, t),
                        "explanation of {:?} cites invisible {}{:?}",
                        why, p, t
                    );
                }
            }
            // Point-query addressing agrees with the scan.
            for tuple in &scanned {
                prop_assert_eq!(
                    session.explain(&ndlog::Query::point(pred, tuple)).len(),
                    1,
                    "visible {} tuple has no explanation", pred
                );
            }
        }

        // Invisible tuples must have no explanation.
        prop_assert!(session
            .explain(&ndlog::Query::point("link", &link(99, 98, 1)))
            .is_empty());
    }
}
