//! Integration tests for sharded parallel evaluation (DESIGN.md §7).
//!
//! The acceptance contract: sharded evaluation produces **byte-identical**
//! databases to the single-threaded engines at every shard count, on
//! realistic topology scales and under link churn.  (Wall-clock scaling is
//! measured by the EXP-10 bench, not asserted here — CI machines may have
//! one core.)
//!
//! Sharding is exercised through the unified churn API: a
//! [`ndlog::Session`] built with `.sharding(n)`.

use ndlog::incremental::{IncrementalEngine, TupleDelta};
use ndlog::{eval_program, CommitOutcome, Session, Update, Value};
use netsim::Topology;

fn link(a: u32, b: u32, c: i64) -> Vec<Value> {
    vec![Value::Addr(a), Value::Addr(b), Value::Int(c)]
}

fn link_toggle(a: u32, b: u32, c: i64, up: bool) -> Vec<TupleDelta> {
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

/// Commit a `TupleDelta` batch through a session transaction (the oracle
/// engines keep the raw-delta API; sessions speak `Update`).
fn commit(s: &mut Session, batch: &[TupleDelta]) -> CommitOutcome {
    s.txn()
        .extend(batch.iter().map(Update::from))
        .commit()
        .unwrap()
}

/// A 40-node reachability fixpoint agrees across 1/2/4/8 shards and the
/// from-scratch evaluator.
#[test]
fn reachability_fixpoint_agrees_across_shard_counts() {
    let topo = Topology::random_connected(40, 0.08, 3, 11);
    let mut prog = ndlog::programs::reachability();
    ndlog::programs::add_links(&mut prog, &topo.edge_list());

    let want = eval_program(&prog).unwrap();
    for shards in [1usize, 2, 4, 8] {
        let session = Session::open(&prog).sharding(shards).build().unwrap();
        assert_eq!(
            session.database(),
            want,
            "{shards}-shard incremental fixpoint diverges"
        );
    }
}

/// Path vector (recursion + aggregates + builtins) under a failure/recovery
/// churn sequence: every batch outcome, database and work counter matches
/// the single-threaded engine at every shard count.  Full `BatchStats`
/// equality — derivations *and* maintenance rounds — is part of the
/// DESIGN.md §10 shard-determinism contract.
#[test]
fn path_vector_churn_agrees_across_shard_counts() {
    let topo = Topology::random_connected(16, 0.18, 4, 5);
    let mut prog = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut prog, &topo.edge_list());

    let mut single = IncrementalEngine::new(&prog).unwrap();
    let mut sessions: Vec<(usize, Session)> = [2usize, 4, 8]
        .iter()
        .map(|&n| (n, Session::open(&prog).sharding(n).build().unwrap()))
        .collect();
    for (n, s) in &sessions {
        assert_eq!(s.database(), single.database());
        assert_eq!(
            s.init_stats(),
            single.init_stats(),
            "{n} shards do different initial-fixpoint work"
        );
    }

    // Fail three edges one at a time, then recover them in reverse order.
    let failures: Vec<(u32, u32, i64)> = topo.edge_list().into_iter().take(3).collect();
    let mut schedule: Vec<(u32, u32, i64, bool)> =
        failures.iter().map(|&(a, b, c)| (a, b, c, false)).collect();
    schedule.extend(failures.iter().rev().map(|&(a, b, c)| (a, b, c, true)));

    for (a, b, c, up) in schedule {
        let batch = link_toggle(a, b, c, up);
        let want = single.apply(&batch).unwrap();
        for (n, s) in sessions.iter_mut() {
            let got = commit(s, &batch);
            let dir = if up { "up" } else { "down" };
            assert_eq!(
                got.changes, want.changes,
                "{n} shards ship different deltas for {a}-{b} {dir}"
            );
            assert_eq!(
                got.stats, want.stats,
                "{n} shards do different work for {a}-{b} {dir}"
            );
            assert_eq!(s.database(), single.database());
        }
    }
}

/// Stratified negation under churn: the sharded session flips `unreach`
/// tuples exactly like the single-threaded engine when edges toggle.
#[test]
fn negation_churn_agrees_across_shard_counts() {
    let src = "a reach(X,Y) :- edge(X,Y).
         b reach(X,Y) :- reach(X,Z), edge(Z,Y).
         c unreach(X,Y) :- node(X), node(Y), X != Y, !reach(X,Y).
         node(#0). node(#1). node(#2). node(#3). node(#4).
         edge(#0,#1). edge(#3,#4).";
    let prog = ndlog::parse_program(src).unwrap();
    let mut single = IncrementalEngine::new(&prog).unwrap();
    let mut sharded = Session::open(&prog).sharding(4).build().unwrap();
    let edge = |a: u32, b: u32| vec![Value::Addr(a), Value::Addr(b)];
    for batch in [
        vec![TupleDelta::insert("edge", edge(1, 2))],
        vec![TupleDelta::insert("edge", edge(2, 3))],
        vec![TupleDelta::remove("edge", edge(1, 2))],
        vec![
            TupleDelta::insert("edge", edge(1, 2)),
            TupleDelta::remove("edge", edge(3, 4)),
        ],
    ] {
        let want = single.apply(&batch).unwrap();
        let got = commit(&mut sharded, &batch);
        assert_eq!(got.changes, want.changes);
        assert_eq!(sharded.database(), single.database());
    }
}

/// The persistent worker pool (DESIGN.md §8) survives across batches and
/// session clones: a forked session shares the original's pool, both stay
/// byte-identical to a single-threaded oracle through interleaved churn,
/// and the pool thread count never changes.
#[test]
fn persistent_pool_is_shared_across_batches_and_clones() {
    let topo = Topology::random_connected(12, 0.25, 3, 23);
    let mut prog = ndlog::programs::reachability();
    ndlog::programs::add_links(&mut prog, &topo.edge_list());

    let mut oracle_a = IncrementalEngine::new(&prog).unwrap();
    let mut original = Session::open(&prog).sharding(4).build().unwrap();
    assert_eq!(original.router().unwrap().pool().workers(), 3);

    // Warm the pool with one batch, then fork mid-history.
    let (a, b, c) = topo.edge_list()[0];
    oracle_a.apply(&link_toggle(a, b, c, false)).unwrap();
    commit(&mut original, &link_toggle(a, b, c, false));
    assert_eq!(original.database(), oracle_a.database());

    let mut fork = original.clone();
    let mut oracle_b = oracle_a.clone();
    assert!(
        std::ptr::eq(
            original.router().unwrap().pool(),
            fork.router().unwrap().pool()
        ),
        "forks must share one pool, not spawn their own workers"
    );

    // Diverge the histories; each stays identical to its own oracle.
    let (x, y, z) = topo.edge_list()[1];
    oracle_a.apply(&link_toggle(a, b, c, true)).unwrap();
    commit(&mut original, &link_toggle(a, b, c, true));
    oracle_b.apply(&link_toggle(x, y, z, false)).unwrap();
    commit(&mut fork, &link_toggle(x, y, z, false));
    assert_eq!(original.database(), oracle_a.database());
    assert_eq!(fork.database(), oracle_b.database());
    assert_eq!(original.router().unwrap().pool().workers(), 3);
}

/// Many small batches through the pool: the round-per-batch cadence that
/// the persistent workers exist for (the old implementation re-spawned
/// scoped threads for every one of these rounds).
#[test]
fn deep_churn_sequence_stays_identical_through_one_pool() {
    let base: Vec<(u32, u32, i64)> = (0..8u32).map(|i| (i, (i + 1) % 8, 1)).collect();
    let mut prog = ndlog::programs::reachability();
    ndlog::programs::add_links(&mut prog, &base);
    let mut single = IncrementalEngine::new(&prog).unwrap();
    let mut sharded = Session::open(&prog).sharding(4).build().unwrap();

    let mut state = 0xDEADBEEFu64;
    let mut present: Vec<bool> = base.iter().map(|_| true).collect();
    for _ in 0..60 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let i = (state >> 33) as usize % base.len();
        let (a, b, c) = base[i];
        present[i] = !present[i];
        let batch = link_toggle(a, b, c, present[i]);
        let want = single.apply(&batch).unwrap();
        let got = commit(&mut sharded, &batch);
        assert_eq!(got.changes, want.changes);
    }
    assert_eq!(sharded.database(), single.database());
}
