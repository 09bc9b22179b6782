//! Sharded parallel maintenance for NDlog.
//!
//! A single-threaded [`crate::incremental`] engine evaluates every delta
//! rule on one thread, so fixpoint and maintenance cost grow with topology
//! size regardless of cores.  This module partitions the *delta work* of
//! each maintenance round across N shard workers (the from-scratch
//! [`crate::eval`] kernel stays single-threaded):
//!
//! * a [`ShardRouter`] assigns every tuple to a shard by hashing the
//!   relation's **join key** — the argument positions whose variables are
//!   shared with other literals, extracted once from the rule analysis — and
//!   falls back to a full-tuple hash for keyless relations.  Routing is
//!   id-keyed: the router resolves each interned [`RelId`] to its key
//!   columns through a dense table, no name lookup on the per-tuple path;
//! * each round, the pending delta maps are partitioned by the router and
//!   one **persistent worker** per shard (a long-lived thread from the
//!   router's [`ShardPool`], fed over a channel) evaluates every delta rule
//!   **driven only by its shard of the deltas**, joining against the shared
//!   frozen store;
//! * workers write their partial results — signed head-tuple deltas,
//!   z-set suspect sets, re-aggregated groups — into per-shard slots and
//!   the coordinator merges them *in shard order* at a **global fixpoint
//!   barrier** before applying the round's net changes and routing the next
//!   round's deltas.
//!
//! The pool outlives rounds, batches, and engine clones (it is shared by
//! `Arc` through the router), closing the former per-round
//! `std::thread::scope` spawn cost on deep fixpoints; see [`crate::pool`].
//!
//! # Determinism
//!
//! Sharded evaluation is **byte-identical** to single-threaded evaluation,
//! for every shard count and despite arbitrary thread interleaving, because
//! no worker ever observes another worker's effects mid-round:
//!
//! 1. the store is frozen (shared immutably) for the whole round — workers
//!    only read, the coordinator only writes after the barrier;
//! 2. each delta tuple is owned by exactly one shard, so the union of the
//!    workers' rule firings is exactly the single-threaded firing set;
//! 3. partial results merge through commutative, order-insensitive
//!    operations — signed support counts *sum*, suspect sets *union* —
//!    into ordered maps, and the coordinator applies them in `BTreeMap`
//!    order exactly as the single-threaded engine would.
//!
//! The shard hash therefore never influences *results*, only load balance;
//! property tests in `tests/` pin byte-identity against both the
//! from-scratch evaluator and the incremental engine across randomized
//! programs, topologies, and churn schedules (see `DESIGN.md` §7 and §8).
//!
//! # Example
//!
//! Sharding is a [`Session`](crate::update::Session) knob — the unified
//! churn API fans maintenance out over the persistent workers:
//!
//! ```
//! use ndlog::update::Session;
//! use ndlog::{eval_program, parse_program, Value};
//!
//! let prog = parse_program(
//!     "r1 reach(X,Y) :- edge(X,Y).
//!      r2 reach(X,Y) :- edge(X,Z), reach(Z,Y).
//!      edge(1,2). edge(2,3).",
//! )
//! .unwrap();
//! let mut session = Session::open(&prog).sharding(4).build().unwrap();
//! assert!(session.contains("reach", &[Value::Int(1), Value::Int(3)]));
//! // Byte-identical to single-threaded from-scratch evaluation:
//! assert_eq!(session.database(), eval_program(&prog).unwrap());
//! // Churn maintains incrementally, still on the same 4 persistent workers:
//! session
//!     .txn()
//!     .retract("edge", vec![Value::Int(2), Value::Int(3)])
//!     .commit()
//!     .unwrap();
//! assert!(!session.contains("reach", &[Value::Int(1), Value::Int(3)]));
//! ```

use crate::ast::{Literal, Term};
use crate::error::Result;
use crate::pool::ShardPool;
use crate::safety::Analysis;
use crate::storage::SignedDeltas;
use crate::symbols::RelId;
use crate::value::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Assigns tuples to shards by hashing each relation's join key, and owns
/// the persistent worker pool the rounds run on.
///
/// The join key of a relation is chosen once, from the static rule analysis:
/// for every positive body atom, the argument positions whose variables also
/// occur in another literal of the same body are a join-key candidate, and
/// the candidate that appears most often across the program wins (ties break
/// toward the lexicographically smallest column set).  Relations that never
/// join on a consistent key — or whose tuples are too short for the chosen
/// columns — fall back to hashing the full tuple.
///
/// The router only decides *which worker evaluates which delta tuple*;
/// results are independent of the hash (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: usize,
    /// Join-key columns per dense relation id (`None`/out-of-range → full
    /// tuple hash).  Ids agree with every store built from the same
    /// analysis (see [`crate::symbols`]).
    key_cols: Vec<Option<Vec<usize>>>,
    /// The persistent workers (`shards - 1` threads), shared across every
    /// engine clone using this router.
    pool: Arc<ShardPool>,
}

impl ShardRouter {
    /// Build a router for `shards` shards over an analyzed program, spawning
    /// the persistent worker pool (`shards - 1` threads; none for 1 shard).
    ///
    /// `shards` is clamped to at least 1.
    pub fn new(analysis: &Analysis, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut key_cols = vec![None; analysis.symbols.len()];
        for (pred, cols) in join_keys(analysis) {
            if let Some(id) = analysis.symbols.lookup(&pred) {
                key_cols[id.index()] = Some(cols);
            }
        }
        ShardRouter {
            shards,
            key_cols,
            pool: Arc::new(ShardPool::new(shards - 1)),
        }
    }

    /// Number of shards this router distributes over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The persistent worker pool backing this router's rounds.
    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// Publish the pool's load counters as gauges: `ndlog_pool_workers`,
    /// `ndlog_pool_rounds`, and `ndlog_pool_jobs_dispatched`.  Set at
    /// snapshot time rather than recorded on the round hot path (the pool's
    /// own relaxed atomics already count for free); a no-op when `t` is the
    /// disabled sink.
    pub fn record_pool_gauges(&self, t: &fvn_telemetry::Telemetry) {
        if !t.is_enabled() {
            return;
        }
        t.gauge("ndlog_pool_workers")
            .set(self.pool.workers() as i64);
        t.gauge("ndlog_pool_rounds").set(self.pool.rounds() as i64);
        t.gauge("ndlog_pool_jobs_dispatched")
            .set(self.pool.jobs_dispatched() as i64);
    }

    /// The join-key column positions chosen for `rel`; empty means the
    /// full tuple is hashed.
    fn key_columns_id(&self, rel: RelId) -> &[usize] {
        self.key_cols
            .get(rel.index())
            .and_then(Option::as_deref)
            .unwrap_or(&[])
    }

    /// The shard that owns `tuple` of the interned relation `rel` — the
    /// per-tuple hot path: a dense table load plus a hash, no name lookup.
    #[inline]
    pub fn shard_of_id(&self, rel: RelId, tuple: &[Value]) -> usize {
        if self.shards <= 1 {
            return 0;
        }
        let mut h = DefaultHasher::new();
        let cols = self.key_columns_id(rel);
        if cols.is_empty() || cols.iter().any(|&c| c >= tuple.len()) {
            tuple.hash(&mut h);
        } else {
            for &c in cols {
                tuple[c].hash(&mut h);
            }
        }
        (h.finish() % self.shards as u64) as usize
    }

    /// The shard that owns an opaque key tuple (full-tuple hash); used to
    /// spread aggregate group keys, which belong to no stored relation.
    pub fn shard_of_key(&self, key: &[Value]) -> usize {
        if self.shards <= 1 {
            return 0;
        }
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards as u64) as usize
    }

    /// Split a signed delta map into per-shard delta maps; entry `k` holds
    /// exactly the tuples [`Self::shard_of_id`] assigns to shard `k`.  The
    /// split shares tuple handles with the input (reference-count bumps,
    /// no deep copies).
    pub fn partition(&self, deltas: &SignedDeltas) -> Vec<SignedDeltas> {
        let mut out = vec![SignedDeltas::new(); self.shards];
        for (&rel, m) in deltas {
            for (tuple, sign) in m {
                out[self.shard_of_id(rel, tuple)]
                    .entry(rel)
                    .or_default()
                    .insert(tuple.clone(), *sign);
            }
        }
        out
    }
}

/// Choose each relation's join-key column set from the analyzed rules.
fn join_keys(analysis: &Analysis) -> BTreeMap<String, Vec<usize>> {
    let mut freq: BTreeMap<String, BTreeMap<Vec<usize>, usize>> = BTreeMap::new();
    for rule in &analysis.rules {
        // How many body literals mention each variable?
        let mut occurs: BTreeMap<String, usize> = BTreeMap::new();
        for lit in &rule.body {
            let mut vs = BTreeSet::new();
            match lit {
                Literal::Pos(a) | Literal::Neg(a) => a.vars(&mut vs),
                Literal::Assign(v, e) => {
                    vs.insert(v.clone());
                    e.vars(&mut vs);
                }
                Literal::Cmp(a, _, b) => {
                    a.vars(&mut vs);
                    b.vars(&mut vs);
                }
            }
            for v in vs {
                *occurs.entry(v).or_insert(0) += 1;
            }
        }
        for lit in &rule.body {
            let Literal::Pos(atom) = lit else { continue };
            let cols: Vec<usize> = atom
                .args
                .iter()
                .enumerate()
                .filter_map(|(i, t)| match t {
                    Term::Var(v) if occurs.get(v).copied().unwrap_or(0) >= 2 => Some(i),
                    _ => None,
                })
                .collect();
            if !cols.is_empty() {
                *freq
                    .entry(atom.pred.clone())
                    .or_default()
                    .entry(cols)
                    .or_insert(0) += 1;
            }
        }
    }
    freq.into_iter()
        .map(|(pred, cands)| {
            let best = cands
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(cols, _)| cols)
                .expect("non-empty candidate map");
            (pred, best)
        })
        .collect()
}

/// Run `worker(k)` for every shard `k`, returning the results in shard
/// order.
///
/// With a pool, shard 0 runs on the calling thread (which doubles as the
/// coordinator) and shards `1..n` run on the pool's persistent workers; the
/// call returns only once every worker has reported — this is the round's
/// fixpoint barrier.  Without a pool (single-threaded engines) the workers
/// run inline.  Errors propagate in shard order, so the reported error is
/// deterministic.
pub(crate) fn fan_out<T: Send>(
    pool: Option<&ShardPool>,
    shards: usize,
    worker: &(dyn Fn(usize) -> Result<T> + Sync),
) -> Result<Vec<T>> {
    match pool {
        Some(pool) if shards > 1 => pool.run(shards, worker),
        _ => (0..shards.max(1)).map(worker).collect(),
    }
}

/// Split a list of work items into `shards` chunks by a caller-supplied
/// shard assignment, preserving relative order within each chunk.
pub(crate) fn chunk_by<T: Clone>(
    items: &[T],
    shards: usize,
    shard_of: impl Fn(&T) -> usize,
) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new(); shards.max(1)];
    for it in items {
        out[shard_of(it).min(shards.saturating_sub(1))].push(it.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_program;
    use crate::incremental::{IncrementalEngine, TupleDelta};
    use crate::parser::parse_program;
    use crate::programs;
    use crate::safety::analyze;
    use crate::value::{SharedTuple, Value};

    #[test]
    fn join_keys_pick_shared_columns() {
        // reach joins on its first column (Z), link on its second.
        let prog = programs::reachability();
        let analysis = analyze(&prog).unwrap();
        let router = ShardRouter::new(&analysis, 4);
        let id = |p: &str| analysis.symbols.lookup(p).unwrap();
        // r2: link(@S,Z,C), reachable(@Z,D): Z is shared; S only in head.
        assert_eq!(router.key_columns_id(id("reachable")), &[0]);
        assert!(!router.key_columns_id(id("link")).is_empty());
    }

    #[test]
    fn router_is_deterministic_and_total() {
        let prog = programs::path_vector();
        let analysis = analyze(&prog).unwrap();
        let router = ShardRouter::new(&analysis, 3);
        let t = vec![Value::Addr(1), Value::Addr(2), Value::Int(5)];
        let link = analysis.symbols.lookup("link").unwrap();
        let s = router.shard_of_id(link, &t);
        assert!(s < 3);
        assert_eq!(s, router.shard_of_id(link, &t));
        // Short tuples fall back to the full-tuple hash, as do group keys.
        let short = vec![Value::Int(1)];
        assert!(router.shard_of_id(link, &short) < 3);
        assert_eq!(
            router.shard_of_id(link, &short),
            router.shard_of_key(&short)
        );
    }

    #[test]
    fn partition_is_a_partition() {
        let prog = programs::reachability();
        let analysis = analyze(&prog).unwrap();
        let router = ShardRouter::new(&analysis, 4);
        let reachable = analysis.symbols.lookup("reachable").unwrap();
        let mut deltas = SignedDeltas::new();
        for i in 0..20i64 {
            deltas
                .entry(reachable)
                .or_default()
                .insert(SharedTuple::from(vec![Value::Int(i), Value::Int(i + 1)]), 1);
        }
        let parts = router.partition(&deltas);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().flat_map(|p| p.values()).map(|m| m.len()).sum();
        assert_eq!(total, 20, "every tuple lands in exactly one shard");
    }

    #[test]
    fn fan_out_merges_in_shard_order_and_propagates_errors() {
        let pool = ShardPool::new(3);
        let vals = fan_out(Some(&pool), 4, &|k| Ok(k * 10)).unwrap();
        assert_eq!(vals, vec![0, 10, 20, 30]);
        let err = fan_out::<usize>(Some(&pool), 3, &|k| {
            if k == 1 {
                Err(crate::error::NdlogError::Eval { msg: "boom".into() })
            } else {
                Ok(k)
            }
        });
        assert!(err.is_err());
        // Poolless fan-out runs inline with identical results.
        assert_eq!(fan_out(None, 4, &|k| Ok(k * 10)).unwrap(), vals);
    }

    #[test]
    fn sharded_fixpoint_matches_single_threaded() {
        let edges = [(0, 1, 1), (1, 2, 2), (0, 2, 9), (2, 3, 1)];
        let mut prog = programs::path_vector();
        programs::add_links(&mut prog, &edges);
        let single = IncrementalEngine::new(&prog).unwrap();
        for shards in [1, 2, 4, 8] {
            let sharded = crate::update::Session::open(&prog)
                .sharding(shards)
                .build()
                .unwrap();
            assert_eq!(
                sharded.database(),
                single.database(),
                "{shards} shards diverge on the initial fixpoint"
            );
            assert_eq!(
                sharded.init_stats().derivations,
                single.init_stats().derivations,
                "{shards} shards fire a different number of rules"
            );
        }
    }

    #[test]
    fn sharded_churn_matches_single_threaded() {
        let edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)];
        let mut prog = programs::reachability();
        programs::add_links(&mut prog, &edges);
        let link = |a: u32, b: u32| vec![Value::Addr(a), Value::Addr(b), Value::Int(1)];
        let batch = vec![
            TupleDelta::remove("link", link(2, 3)),
            TupleDelta::remove("link", link(3, 2)),
        ];
        let mut single = IncrementalEngine::new(&prog).unwrap();
        let want = single.apply(&batch).unwrap();
        for shards in [2, 4, 8] {
            let mut sharded = crate::update::Session::open(&prog)
                .sharding(shards)
                .build()
                .unwrap();
            let got = sharded.txn().link_down(2, 3, 1).commit().unwrap();
            assert_eq!(got.changes, want.changes, "{shards}-shard changes diverge");
            assert_eq!(sharded.database(), single.database());
        }
    }

    #[test]
    fn sharded_negation_and_aggregates_match() {
        let src = "a reach(X,Y) :- edge(X,Y).
             b reach(X,Y) :- reach(X,Z), edge(Z,Y).
             c unreach(X,Y) :- node(X), node(Y), X != Y, !reach(X,Y).
             d deg(X, count<Y>) :- edge(X,Y).
             node(#0). node(#1). node(#2). node(#3).
             edge(#0,#1). edge(#1,#2).";
        let prog = parse_program(src).unwrap();
        let mut single = IncrementalEngine::new(&prog).unwrap();
        let mut sharded = crate::update::Session::open(&prog)
            .sharding(4)
            .build()
            .unwrap();
        assert_eq!(sharded.database(), eval_program(&prog).unwrap());
        let batch = vec![TupleDelta::insert(
            "edge",
            vec![Value::Addr(2), Value::Addr(3)],
        )];
        let want = single.apply(&batch).unwrap();
        let got = sharded
            .txn()
            .assert("edge", vec![Value::Addr(2), Value::Addr(3)])
            .commit()
            .unwrap();
        assert_eq!(got.changes, want.changes);
        assert_eq!(sharded.database(), single.database());
    }
}
