//! The unified transactional churn API: one typed [`Update`] stream with
//! batch windows, shared by every engine.
//!
//! The paper's thesis is that a *single* declarative artifact drives proof,
//! execution, and simulation — but churn used to enter each engine
//! differently: signed [`TupleDelta`]s for the incremental engine, link
//! up/down toggles for the runtime, soft state rewritten away at compile
//! time.  This module is the one front door:
//!
//! * [`Update`] — the typed churn vocabulary: raw tuple
//!   assertions/retractions, symmetric link up/down events, first-class
//!   metric changes, and timed expirations;
//! * [`Session`] / [`Txn`] — the transactional entry point.  A [`Txn`]
//!   collects updates and compiles them to interned [`RelDelta`]s **once**
//!   at commit; the session fans the compiled batch out to whichever
//!   backend it wraps (incremental maintenance — optionally sharded — or a
//!   from-scratch *oracle* used as ground truth in tests);
//! * **batch windows** — [`SessionBuilder::batch_window`] makes commits
//!   accumulate until the window closes ([`Session::advance`]), flushing
//!   one merged batch per window.  Batching amortizes maintenance across
//!   simultaneous deltas and nets out transient churn (a down/up flap
//!   inside one window cancels before the engine ever sees it);
//! * **soft state as deltas** — [`SessionBuilder::soft_state`] attaches a
//!   [`TtlPolicy`]: every assertion of a soft relation schedules an
//!   [`Update::Expire`] that lowers to a retraction inside the same window
//!   machinery, replacing the static §4.2 rewrite with live expiry under
//!   incremental maintenance (re-asserting refreshes, because external
//!   inputs are multisets).
//!
//! # Batch-window determinism
//!
//! Windowing changes *when* maintenance runs, never *what it converges to*:
//! a window flush applies the concatenation of the buffered deltas as one
//! batch, and incremental maintenance is a function of the net external
//! multiset — so for any update stream, the database after draining the
//! stream is byte-identical at every window size (and every shard count).
//! `tests/properties.rs::batched_churn_matches_unbatched` pins this against
//! the from-scratch oracle backend.

use crate::ast::{Lifetime, Program};
use crate::error::{NdlogError, Result};
use crate::eval::{Database, EvalOptions, Evaluator, IdDatabase};
use crate::explain::Explanation;
use crate::incremental::{BatchStats, EngineSnapshot, IncrementalEngine, RelDelta, TupleDelta};
use crate::query::{Query, QueryEngine, QueryResult};
use crate::sharded::ShardRouter;
use crate::storage::RelationStorage;
use crate::symbols::{RelId, Symbols};
use crate::value::{SharedTuple, Tuple, Value};
use fvn_telemetry::{Counter, Gauge, Histogram, Snapshot, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The relation link updates lower to: `link(@src, dst, cost)`, the standard
/// input relation of the paper's programs (shared with the runtime).
pub const LINK_PRED: &str = "link";

/// One typed churn event.  The common vocabulary of every engine: sessions
/// ([`Txn::commit`]), the distributed runtime (which receives the link
/// variants as simulator events), and the model checker
/// (`fvn_mc::ChurnTs` replays `Update` streams).
///
/// Link updates model the paper's **undirected** topologies: they lower to
/// the symmetric `link` fact pair (both directions).  Use
/// [`Update::assert`]/[`Update::retract`] for directed or non-link churn.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Update {
    /// Assert one tuple of a base relation (`+1` external multiplicity).
    Assert {
        /// Relation name.
        pred: String,
        /// The tuple.
        tuple: Tuple,
    },
    /// Retract one tuple of a base relation (`-1` external multiplicity).
    Retract {
        /// Relation name.
        pred: String,
        /// The tuple.
        tuple: Tuple,
    },
    /// The undirected link `src`–`dst` comes up with `cost`.
    LinkUp {
        /// One endpoint.
        src: u32,
        /// Other endpoint.
        dst: u32,
        /// Link cost.
        cost: i64,
    },
    /// The undirected link `src`–`dst` (currently at `cost`) goes down.
    LinkDown {
        /// One endpoint.
        src: u32,
        /// Other endpoint.
        dst: u32,
        /// The cost the link is currently asserted at (identifies the
        /// tuples to retract).
        cost: i64,
    },
    /// The cost of the undirected link `src`–`dst` changes — first-class
    /// metric churn, compiled to retract-old + assert-new in **one** batch
    /// so no engine ever observes the linkless intermediate state.
    MetricChange {
        /// One endpoint.
        src: u32,
        /// Other endpoint.
        dst: u32,
        /// Current cost (identifies the tuples to retract).
        old_cost: i64,
        /// New cost.
        new_cost: i64,
    },
    /// Retract `tuple` of `rel` when the session clock reaches `deadline` —
    /// soft-state expiry as a delta.  Buffered in the session's expiry
    /// queue and lowered to a retraction inside the window that contains
    /// the deadline.
    Expire {
        /// Relation name.
        rel: String,
        /// The tuple to retract.
        tuple: Tuple,
        /// Session tick at which the tuple expires.
        deadline: u64,
    },
}

impl Update {
    /// An assertion.
    pub fn assert(pred: impl Into<String>, tuple: Tuple) -> Self {
        Update::Assert {
            pred: pred.into(),
            tuple,
        }
    }

    /// A retraction.
    pub fn retract(pred: impl Into<String>, tuple: Tuple) -> Self {
        Update::Retract {
            pred: pred.into(),
            tuple,
        }
    }

    /// An undirected link-up event.
    pub fn link_up(src: u32, dst: u32, cost: i64) -> Self {
        Update::LinkUp { src, dst, cost }
    }

    /// An undirected link-down event.
    pub fn link_down(src: u32, dst: u32, cost: i64) -> Self {
        Update::LinkDown { src, dst, cost }
    }

    /// A metric change on an undirected link.
    pub fn metric_change(src: u32, dst: u32, old_cost: i64, new_cost: i64) -> Self {
        Update::MetricChange {
            src,
            dst,
            old_cost,
            new_cost,
        }
    }

    /// A timed expiration.
    pub fn expire(rel: impl Into<String>, tuple: Tuple, deadline: u64) -> Self {
        Update::Expire {
            rel: rel.into(),
            tuple,
            deadline,
        }
    }

    /// The session tick this update is deferred to (`Some` only for
    /// [`Update::Expire`]).
    pub fn deadline(&self) -> Option<u64> {
        match self {
            Update::Expire { deadline, .. } => Some(*deadline),
            _ => None,
        }
    }
}

impl From<&TupleDelta> for Update {
    /// A signed raw delta as an update: positive multiplicity maps to
    /// [`Update::Assert`], negative to [`Update::Retract`] (the
    /// [`TupleDelta`] vocabulary only ever carries ±1) — the bridge from
    /// raw `TupleDelta` batches.
    fn from(d: &TupleDelta) -> Self {
        if d.delta > 0 {
            Update::assert(&d.pred, d.tuple.clone())
        } else {
            Update::retract(&d.pred, d.tuple.clone())
        }
    }
}

impl From<TupleDelta> for Update {
    fn from(d: TupleDelta) -> Self {
        if d.delta > 0 {
            Update::Assert {
                pred: d.pred,
                tuple: d.tuple,
            }
        } else {
            Update::Retract {
                pred: d.pred,
                tuple: d.tuple,
            }
        }
    }
}

fn link_tuple(a: u32, b: u32, c: i64) -> SharedTuple {
    SharedTuple::from(vec![Value::Addr(a), Value::Addr(b), Value::Int(c)])
}

/// Lower one update to its interned deltas, appending to `out`.  The
/// deferred semantics of [`Update::Expire`] (its deadline) is **not**
/// encoded here — callers that honor time (the [`Session`]) queue the
/// lowered retraction at [`Update::deadline`]; callers that explore
/// orderings instead (the model checker) apply it directly.
pub fn lower_update(
    update: &Update,
    intern: &mut dyn FnMut(&str) -> RelId,
    out: &mut Vec<RelDelta>,
) {
    match update {
        Update::Assert { pred, tuple } => {
            out.push(RelDelta::insert(intern(pred), tuple.clone()));
        }
        Update::Retract { pred, tuple } => {
            out.push(RelDelta::remove(intern(pred), tuple.clone()));
        }
        Update::LinkUp { src, dst, cost } => {
            let rel = intern(LINK_PRED);
            out.push(RelDelta::insert(rel, link_tuple(*src, *dst, *cost)));
            out.push(RelDelta::insert(rel, link_tuple(*dst, *src, *cost)));
        }
        Update::LinkDown { src, dst, cost } => {
            let rel = intern(LINK_PRED);
            out.push(RelDelta::remove(rel, link_tuple(*src, *dst, *cost)));
            out.push(RelDelta::remove(rel, link_tuple(*dst, *src, *cost)));
        }
        Update::MetricChange {
            src,
            dst,
            old_cost,
            new_cost,
        } => {
            let rel = intern(LINK_PRED);
            out.push(RelDelta::remove(rel, link_tuple(*src, *dst, *old_cost)));
            out.push(RelDelta::remove(rel, link_tuple(*dst, *src, *old_cost)));
            out.push(RelDelta::insert(rel, link_tuple(*src, *dst, *new_cost)));
            out.push(RelDelta::insert(rel, link_tuple(*dst, *src, *new_cost)));
        }
        Update::Expire { rel, tuple, .. } => {
            out.push(RelDelta::remove(intern(rel), tuple.clone()));
        }
    }
}

/// Lower a batch of updates to interned deltas in one pass (the compiled
/// form a [`Txn`] produces at commit).  [`Update::Expire`] lowers to its
/// retraction directly; see [`lower_update`].
pub fn lower_updates(updates: &[Update], mut intern: impl FnMut(&str) -> RelId) -> Vec<RelDelta> {
    let mut out = Vec::with_capacity(updates.len());
    for u in updates {
        lower_update(u, &mut intern, &mut out);
    }
    out
}

/// Per-relation time-to-live policy: assertions of a soft relation
/// automatically schedule their own [`Update::Expire`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TtlPolicy {
    ttls: BTreeMap<String, u64>,
}

impl TtlPolicy {
    /// An empty policy (nothing expires).
    pub fn new() -> Self {
        Self::default()
    }

    /// Give `pred` a lifetime of `ticks` (builder-style).
    pub fn with(mut self, pred: impl Into<String>, ticks: u64) -> Self {
        self.ttls.insert(pred.into(), ticks);
        self
    }

    /// Extract the policy from a program's `materialize` declarations: every
    /// finite lifetime becomes a TTL, exactly the predicates the §4.2
    /// rewrite ([`crate::softstate`]) would have timestamped.
    pub fn from_program(prog: &Program) -> Self {
        let mut p = TtlPolicy::new();
        for m in &prog.materializes {
            if let Lifetime::Ticks(t) = m.lifetime {
                p.ttls.insert(m.pred.clone(), t);
            }
        }
        p
    }

    /// The lifetime of `pred`, if declared soft.
    pub fn ttl_of(&self, pred: &str) -> Option<u64> {
        self.ttls.get(pred).copied()
    }

    /// All `(relation, ttl)` pairs, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.ttls.iter().map(|(p, &t)| (p.as_str(), t))
    }

    /// True when no relation has a TTL.
    pub fn is_empty(&self) -> bool {
        self.ttls.is_empty()
    }
}

/// Builder for a [`Session`]: the one place evaluation strategy is chosen.
///
/// ```
/// use ndlog::update::Session;
///
/// let prog = ndlog::parse_program("r reach(X,Y) :- link(X,Y,C). link(1,2,1).").unwrap();
/// let session = Session::open(&prog)
///     .sharding(4)      // run maintenance on 4 persistent shard workers
///     .batch_window(8)  // flush one merged batch per 8-tick window
///     .build()
///     .unwrap();
/// assert_eq!(session.len_of("reach"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    prog: Program,
    shards: usize,
    window: u64,
    opts: EvalOptions,
    ttl: Option<TtlPolicy>,
    telemetry: Telemetry,
    checkpoint_every: u64,
    native_ops: bool,
}

impl SessionBuilder {
    /// Run maintenance on `n` persistent shard workers (1 = single-threaded;
    /// results are byte-identical either way, see [`crate::sharded`]).
    pub fn sharding(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Accumulate commits and flush one merged batch every `ticks` session
    /// ticks (0 = flush each commit immediately).  See [`Session::advance`].
    pub fn batch_window(mut self, ticks: u64) -> Self {
        self.window = ticks;
        self
    }

    /// Custom evaluation bounds.
    pub fn eval_options(mut self, opts: EvalOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Execute recognized recursive strata with native graph operators
    /// (see [`crate::algo`]; on by default).  Off runs pure semi-naive
    /// maintenance everywhere — the differential baseline; visible
    /// databases and support maps are byte-identical either way.
    pub fn native_ops(mut self, on: bool) -> Self {
        self.native_ops = on;
        self
    }

    /// Whether native graph operators are enabled.
    pub fn native_ops_enabled(&self) -> bool {
        self.native_ops
    }

    /// Checkpoint cadence in ticks (0 = no automatic checkpoints).
    ///
    /// Consumers that own a clock take an [`EngineSnapshot`] of engine
    /// state roughly every `ticks` ticks of activity: the distributed
    /// runtime arms a per-node checkpoint timer with this period so a
    /// crashed node can restore the snapshot and rejoin warm.  Local
    /// sessions can checkpoint explicitly at any time with
    /// [`Session::checkpoint`].
    pub fn checkpoint_every(mut self, ticks: u64) -> Self {
        self.checkpoint_every = ticks;
        self
    }

    /// The configured checkpoint cadence (0 = disabled).
    pub fn checkpoint_cadence(&self) -> u64 {
        self.checkpoint_every
    }

    /// Attach a soft-state TTL policy: assertions of covered relations
    /// schedule their own expiry retraction at `now + ttl`.
    ///
    /// Deadlines anchor to the **commit** tick, not the flush tick — they
    /// must be window-independent, or batching would change what a stream
    /// converges to.  Consequently a soft tuple whose whole lifetime fits
    /// inside the open window (`ttl` shorter than the time to the window
    /// close) nets out at the flush without ever becoming visible —
    /// exactly like a down/up flap inside one window.  Pick windows
    /// shorter than the TTLs they carry.
    pub fn soft_state(mut self, policy: TtlPolicy) -> Self {
        self.ttl = Some(policy);
        self
    }

    /// The program this session will evaluate.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Configured batch window in ticks (0 = unbatched).
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Configured evaluation bounds.
    pub fn options(&self) -> EvalOptions {
        self.opts
    }

    /// Configured TTL policy, if any.
    pub fn ttl(&self) -> Option<&TtlPolicy> {
        self.ttl.as_ref()
    }

    /// Enable telemetry backed by a fresh [`fvn_telemetry::MetricsRegistry`]
    /// (`true`), or keep the default no-op sink (`false`).
    ///
    /// The disabled path is zero-alloc on warm probes (EXP-13 pins this
    /// with the EXP-11 `CountingAlloc` harness); the enabled path records
    /// through lock-free atomic handles resolved once at build.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = Telemetry::with_enabled(enabled);
        self
    }

    /// Route this session's metrics into an existing registry handle
    /// (e.g. one registry shared by several sessions or a distributed
    /// runtime's node fleet).
    pub fn with_telemetry(mut self, t: &Telemetry) -> Self {
        self.telemetry = t.clone();
        self
    }

    /// The configured telemetry handle (the no-op sink by default).
    pub fn telemetry_handle(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Build an **incremental** session (counting maintenance for
    /// non-recursive strata, z-set maintenance for recursive ones; the
    /// production backend), evaluating the program's facts to a first
    /// fixpoint — on the configured shard workers when `sharding > 1`.
    pub fn build(self) -> Result<Session> {
        let analysis = crate::safety::analyze(&self.prog)?;
        let router = (self.shards > 1).then(|| Arc::new(ShardRouter::new(&analysis, self.shards)));
        let queries = QueryEngine::new(&analysis, self.opts).with_telemetry(&self.telemetry);
        let mut engine = IncrementalEngine::from_analysis(analysis, self.opts);
        engine.set_native_ops(self.native_ops);
        engine.set_sharding(router.clone());
        // Resolve metric handles before the initial fixpoint so seeding is
        // counted like any other batch.
        engine.set_telemetry(&self.telemetry);
        engine.seed_facts(&self.prog)?;
        let mut backend = Backend::Incremental { engine, router };
        let ttl_by_rel = Self::intern_ttl(&self.ttl, &mut backend);
        Ok(Session {
            backend,
            window: self.window,
            now: 0,
            pending: Vec::new(),
            expiries: BTreeMap::new(),
            ttl_by_rel,
            stats: SessionStats::default(),
            metrics: SessionMetrics::resolve(&self.telemetry),
            telemetry: self.telemetry,
            queries,
        })
    }

    /// Compile the TTL policy to interned relation ids once, so the commit
    /// hot path looks lifetimes up by `RelId` with no name rendering.
    fn intern_ttl(policy: &Option<TtlPolicy>, backend: &mut Backend) -> BTreeMap<RelId, u64> {
        policy
            .iter()
            .flat_map(TtlPolicy::iter)
            .map(|(pred, ticks)| (backend.intern(pred), ticks))
            .collect()
    }

    /// Build an **oracle** session: every flush re-evaluates the program
    /// from scratch over the maintained base multiset.  Slow and simple —
    /// the ground truth batched/incremental runs are compared against.
    /// Sharding is ignored (the oracle is the single-threaded reference).
    pub fn oracle(self) -> Result<Session> {
        let ev = Evaluator::with_options(&self.prog, self.opts)?.with_telemetry(&self.telemetry);
        let queries = QueryEngine::new(ev.analysis(), self.opts).with_telemetry(&self.telemetry);
        let symbols = ev.analysis().symbols.clone();
        let mut backend = Backend::Oracle {
            ev,
            symbols,
            edb: BTreeMap::new(),
            db: IdDatabase::new(),
            init_stats: BatchStats::default(),
        };
        // Seed the base multiset with the program's ground facts.
        let facts: Vec<RelDelta> = {
            let Backend::Oracle { symbols, .. } = &mut backend else {
                unreachable!()
            };
            self.prog
                .facts
                .iter()
                .map(|f| {
                    let t = f.const_tuple().expect("facts are ground (parser-enforced)");
                    RelDelta::insert(symbols.intern(&f.pred), t)
                })
                .collect()
        };
        let init = backend.apply(&facts)?;
        if let Backend::Oracle { init_stats, .. } = &mut backend {
            *init_stats = init.stats;
        }
        let ttl_by_rel = Self::intern_ttl(&self.ttl, &mut backend);
        Ok(Session {
            backend,
            window: self.window,
            now: 0,
            pending: Vec::new(),
            expiries: BTreeMap::new(),
            ttl_by_rel,
            stats: SessionStats::default(),
            metrics: SessionMetrics::resolve(&self.telemetry),
            telemetry: self.telemetry,
            queries,
        })
    }
}

/// Resolved metric handles for the session layer — all no-op sinks when
/// telemetry is disabled, so the commit/flush hot path pays one branch per
/// probe and allocates nothing.
#[derive(Clone, Default)]
struct SessionMetrics {
    txns: Counter,
    updates: Counter,
    flushes: Counter,
    ttl_scheduled: Counter,
    ttl_expired: Counter,
    flush_batch: Histogram,
    pending: Gauge,
    queries: Counter,
    query_derivations: Counter,
    query_answers: Counter,
}

impl SessionMetrics {
    fn resolve(t: &Telemetry) -> Self {
        Self {
            txns: t.counter("session_txns_total"),
            updates: t.counter("session_updates_total"),
            flushes: t.counter("session_flushes_total"),
            ttl_scheduled: t.counter("session_ttl_scheduled_total"),
            ttl_expired: t.counter("session_ttl_expired_total"),
            flush_batch: t.histogram("session_flush_batch_size"),
            pending: t.gauge("session_pending_deltas"),
            queries: t.counter("session_queries_total"),
            query_derivations: t.counter("session_query_derivations_total"),
            query_answers: t.counter("session_query_answers_total"),
        }
    }
}

/// Net effect of one committed transaction (or window flush).
#[derive(Debug, Clone, Default)]
pub struct CommitOutcome {
    /// Session tick of the flush (or of the buffering commit).
    pub at: u64,
    /// True when the batch reached the engine; false when it was buffered
    /// into the still-open window.
    pub flushed: bool,
    /// Net visibility changes, name-keyed and sorted (empty when buffered).
    pub changes: Vec<TupleDelta>,
    /// Work counters of the flush (zero when buffered).
    pub stats: BatchStats,
}

/// Cumulative counters over a session's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Transactions committed.
    pub txns: usize,
    /// Updates lowered (expiry retractions generated by the TTL policy
    /// included).
    pub updates: usize,
    /// Batches that reached the engine.
    pub flushes: usize,
    /// Rule firings across all flushes.
    pub derivations: usize,
}

#[derive(Clone)]
enum Backend {
    /// Delta-by-delta maintenance ([`IncrementalEngine`]), optionally fanned
    /// out over persistent shard workers.
    Incremental {
        engine: IncrementalEngine,
        router: Option<Arc<ShardRouter>>,
    },
    /// From-scratch re-evaluation over a maintained base multiset.  Fully
    /// id-native: the base multiset, the evaluated [`IdDatabase`], and the
    /// diff all run on `RelId`/[`SharedTuple`] handles ([`Evaluator::run`]);
    /// names are rendered only for the changed tuples of each flush.
    /// `symbols` is a superset clone of the evaluator's table (program
    /// predicates share ids; churn-only relations extend it).
    Oracle {
        ev: Evaluator,
        symbols: Symbols,
        edb: BTreeMap<RelId, BTreeMap<SharedTuple, i64>>,
        db: IdDatabase,
        init_stats: BatchStats,
    },
}

impl Backend {
    fn intern(&mut self, pred: &str) -> RelId {
        match self {
            Backend::Incremental { engine, .. } => engine.rel_id(pred),
            Backend::Oracle { symbols, .. } => symbols.intern(pred),
        }
    }

    fn apply(&mut self, deltas: &[RelDelta]) -> Result<BatchOutcomeNamed> {
        match self {
            Backend::Incremental { engine, .. } => {
                let out = engine.apply_interned(deltas)?;
                let symbols = engine.symbols();
                let mut changes: Vec<TupleDelta> = out
                    .changes
                    .into_iter()
                    .map(|c| TupleDelta {
                        pred: symbols.name(c.rel).to_string(),
                        tuple: c.tuple.to_tuple(),
                        delta: c.delta,
                    })
                    .collect();
                changes.sort();
                Ok(BatchOutcomeNamed {
                    changes,
                    stats: out.stats,
                })
            }
            Backend::Oracle {
                ev,
                symbols,
                edb,
                db,
                ..
            } => {
                for d in deltas {
                    let m = edb.entry(d.rel).or_default();
                    let c = m.entry(d.tuple.clone()).or_insert(0);
                    *c += d.delta;
                    if *c == 0 {
                        m.remove(&d.tuple);
                    }
                }
                let mut next = IdDatabase::new();
                for (&rel, m) in edb.iter() {
                    for (t, &c) in m {
                        if c > 0 {
                            next.insert(rel, t.clone());
                        }
                    }
                }
                let ev_stats = ev.run(&mut next)?;
                let mut changes: Vec<TupleDelta> = Vec::new();
                for i in 0..db.num_rels().max(next.num_rels()) {
                    let rel = RelId::from_index(i);
                    for t in db.relation(rel) {
                        if !next.contains(rel, t) {
                            changes.push(TupleDelta::remove(symbols.name(rel), t.to_tuple()));
                        }
                    }
                    for t in next.relation(rel) {
                        if !db.contains(rel, t) {
                            changes.push(TupleDelta::insert(symbols.name(rel), t.to_tuple()));
                        }
                    }
                }
                changes.sort();
                let stats = BatchStats {
                    derivations: ev_stats.derivations,
                    inserted: changes.iter().filter(|c| c.delta > 0).count(),
                    deleted: changes.iter().filter(|c| c.delta < 0).count(),
                    rounds: ev_stats.iterations,
                };
                *db = next;
                Ok(BatchOutcomeNamed { changes, stats })
            }
        }
    }
}

struct BatchOutcomeNamed {
    changes: Vec<TupleDelta>,
    stats: BatchStats,
}

/// The unified churn entry point: wraps one evaluation backend and owns the
/// session clock, batch window, and expiry queue.  Open with
/// [`Session::open`]; feed churn through [`Session::txn`].
///
/// ```
/// use ndlog::update::{Session, Update};
///
/// let mut prog = ndlog::programs::path_vector();
/// ndlog::programs::add_links(&mut prog, &[(0, 1, 1), (1, 2, 2), (0, 2, 9)]);
/// let mut session = Session::open(&prog).build().unwrap();
///
/// // One transaction: the 0-1 link fails and 0-2 gets cheaper, maintained
/// // as a single batch (no engine sees the intermediate state).
/// let out = session
///     .txn()
///     .link_down(0, 1, 1)
///     .metric_change(0, 2, 9, 4)
///     .commit()
///     .unwrap();
/// assert!(out.flushed && !out.changes.is_empty());
/// assert!(session.contains(
///     "bestPathCost",
///     &[ndlog::Value::Addr(0), ndlog::Value::Addr(2), ndlog::Value::Int(4)],
/// ));
/// ```
///
/// Sessions are `Clone`: a fork gets its own engine state (sharing the
/// immutable compilation products and, when sharded, the worker pool by
/// reference), its own clock, and its own pending/expiry queues — what-if
/// exploration over the same program is a clone away.
#[derive(Clone)]
pub struct Session {
    backend: Backend,
    window: u64,
    now: u64,
    /// Compiled deltas awaiting the window close.
    pending: Vec<RelDelta>,
    /// Deferred retractions by deadline (soft-state expiry).
    expiries: BTreeMap<u64, Vec<RelDelta>>,
    /// The TTL policy compiled to interned ids (empty = no soft state).
    ttl_by_rel: BTreeMap<RelId, u64>,
    stats: SessionStats,
    metrics: SessionMetrics,
    telemetry: Telemetry,
    /// Demand-driven read path: compiles binding patterns to magic-sets
    /// plans (cached per shape) evaluated over the backend's external
    /// tuples.
    queries: QueryEngine,
}

impl Session {
    /// Start configuring a session over `prog` (see [`SessionBuilder`]).
    pub fn open(prog: &Program) -> SessionBuilder {
        SessionBuilder {
            prog: prog.clone(),
            shards: 1,
            window: 0,
            opts: EvalOptions::default(),
            ttl: None,
            telemetry: Telemetry::disabled(),
            checkpoint_every: 0,
            native_ops: true,
        }
    }

    /// Open a transaction.  Updates collect on the builder and compile to
    /// interned deltas once at [`Txn::commit`].
    pub fn txn(&mut self) -> Txn<'_> {
        Txn {
            session: self,
            updates: Vec::new(),
        }
    }

    /// The session clock, in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The configured batch window (0 = unbatched).
    pub fn batch_window(&self) -> u64 {
        self.window
    }

    /// Deltas buffered in the open window.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Cumulative session counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Advance the session clock by `ticks`, flushing one merged batch per
    /// closed window and lowering due expirations into the window that
    /// contains their deadline.  Returns the flush outcomes in time order.
    ///
    /// With window 0, expirations flush exactly at their deadlines and
    /// commits have already flushed themselves.
    pub fn advance(&mut self, ticks: u64) -> Result<Vec<CommitOutcome>> {
        let target = self.now.saturating_add(ticks);
        let mut outs = Vec::new();
        loop {
            let next_expiry = self
                .expiries
                .keys()
                .next()
                .copied()
                .filter(|&d| d <= target);
            // `checked_div` doubles as the window-disabled guard (0 → None).
            let next_window = self
                .now
                .checked_div(self.window)
                .map(|w| (w + 1) * self.window)
                .filter(|&w| w <= target);
            let Some(t) = [next_expiry, next_window].into_iter().flatten().min() else {
                break;
            };
            self.now = t;
            self.collect_due();
            let window_closed = self.window > 0 && t % self.window == 0;
            if (window_closed || self.window == 0) && !self.pending.is_empty() {
                outs.push(self.flush()?);
            }
        }
        self.now = target;
        Ok(outs)
    }

    /// Force-apply the buffered deltas now (an explicit end-of-window).  A
    /// no-op returning an empty outcome when nothing is pending.
    pub fn flush(&mut self) -> Result<CommitOutcome> {
        if self.pending.is_empty() {
            return Ok(CommitOutcome {
                at: self.now,
                flushed: true,
                ..Default::default()
            });
        }
        let batch = std::mem::take(&mut self.pending);
        let out = self.backend.apply(&batch)?;
        self.stats.flushes += 1;
        self.stats.derivations += out.stats.derivations;
        self.metrics.flushes.incr();
        self.metrics.flush_batch.record(batch.len() as u64);
        self.metrics.pending.set(0);
        Ok(CommitOutcome {
            at: self.now,
            flushed: true,
            changes: out.changes,
            stats: out.stats,
        })
    }

    /// Move expirations whose deadline has passed into the pending batch,
    /// in deadline order.
    fn collect_due(&mut self) {
        let mut expired = 0u64;
        while let Some((&d, _)) = self.expiries.iter().next() {
            if d > self.now {
                break;
            }
            let batch = self.expiries.remove(&d).expect("key just observed");
            expired += batch.len() as u64;
            self.pending.extend(batch);
        }
        if expired > 0 {
            self.metrics.ttl_expired.add(expired);
            self.metrics.pending.set(self.pending.len() as i64);
        }
    }

    /// Commit a compiled update list (the [`Txn::commit`] back end).
    fn commit_updates(&mut self, updates: Vec<Update>) -> Result<CommitOutcome> {
        self.stats.txns += 1;
        self.stats.updates += updates.len();
        let mut immediate = Vec::new();
        let mut deferred: Vec<(u64, Vec<RelDelta>)> = Vec::new();
        let now = self.now;
        let mut ttl_generated = 0usize;
        let backend = &mut self.backend;
        let ttl = &self.ttl_by_rel;
        for u in &updates {
            let mut lowered = Vec::new();
            lower_update(u, &mut |p| backend.intern(p), &mut lowered);
            match u.deadline() {
                Some(d) if d > now => deferred.push((d, lowered)),
                _ => {
                    // Soft-state policy (compiled to ids at build, so this
                    // is an id-keyed probe — no name rendering or policy
                    // clone on the commit path): every assertion of a soft
                    // relation schedules its own expiry retraction.
                    // Multiset semantics make re-assertion a refresh: the
                    // new copy outlives the old one's expiry.
                    if !ttl.is_empty() {
                        for d in lowered.iter().filter(|d| d.delta > 0) {
                            if let Some(&t) = ttl.get(&d.rel) {
                                ttl_generated += 1;
                                deferred.push((
                                    now + t,
                                    vec![RelDelta::remove(d.rel, d.tuple.clone())],
                                ));
                            }
                        }
                    }
                    immediate.extend(lowered);
                }
            }
        }
        self.stats.updates += ttl_generated;
        self.metrics.txns.incr();
        self.metrics
            .updates
            .add((updates.len() + ttl_generated) as u64);
        self.metrics.ttl_scheduled.add(ttl_generated as u64);
        for (d, batch) in deferred {
            self.expiries.entry(d).or_default().extend(batch);
        }
        self.pending.extend(immediate);
        self.metrics.pending.set(self.pending.len() as i64);
        if self.window == 0 {
            self.flush()
        } else {
            Ok(CommitOutcome {
                at: self.now,
                flushed: false,
                ..Default::default()
            })
        }
    }

    // --- state accessors --------------------------------------------------

    /// The currently visible database (pending/buffered deltas excluded —
    /// they have not reached the engine yet).
    ///
    /// This is the **bulk/debug** read path: it clones and name-keys every
    /// visible tuple of every relation.  Point and partial reads should go
    /// through [`query`](Self::query) (demanded evaluation), a single
    /// relation through [`relation`](Self::relation), and id-native bulk
    /// consumers through [`id_database`](Self::id_database).
    pub fn database(&self) -> Database {
        match &self.backend {
            Backend::Incremental { engine, .. } => engine.database(),
            Backend::Oracle { db, symbols, .. } => db.to_named(symbols),
        }
    }

    /// The visible database as an id-native [`IdDatabase`] keyed by this
    /// session's [`symbols`](Self::symbols) — the bulk read for callers
    /// that would otherwise re-intern [`database`](Self::database)'s
    /// name-keyed clone tuple by tuple.
    pub fn id_database(&self) -> IdDatabase {
        match &self.backend {
            Backend::Incremental { engine, .. } => engine.id_database(),
            Backend::Oracle { db, .. } => db.clone(),
        }
    }

    /// The relation-name interner shared by [`id_database`](Self::id_database)
    /// and the backend's storage.
    pub fn symbols(&self) -> &Symbols {
        match &self.backend {
            Backend::Incremental { engine, .. } => engine.symbols(),
            Backend::Oracle { symbols, .. } => symbols,
        }
    }

    /// All visible tuples of one relation, in sorted order — the cheap
    /// scoped read for single-relation scans (no full-database clone).
    pub fn relation(&self, pred: &str) -> Vec<Tuple> {
        match &self.backend {
            Backend::Incremental { engine, .. } => engine
                .symbols()
                .lookup(pred)
                .map(|rel| {
                    engine
                        .storage()
                        .visible_id(rel)
                        .map(SharedTuple::to_tuple)
                        .collect()
                })
                .unwrap_or_default(),
            Backend::Oracle { db, symbols, .. } => symbols
                .lookup(pred)
                .map(|rel| db.relation(rel).map(SharedTuple::to_tuple).collect())
                .unwrap_or_default(),
        }
    }

    /// Answer a demand-driven [`Query`] against the current visible state.
    ///
    /// The binding pattern compiles (once per shape, cached) to a
    /// magic-sets rewrite of the program, evaluated semi-naively over a
    /// scratch database seeded from the backend's *externally-supported*
    /// tuples — the incrementally-maintained relations are read for
    /// seeding only and never touched.  Answers are byte-identical to
    /// filtering [`database`](Self::database) with [`Query::matches`];
    /// [`QueryResult::stats`] reports how much smaller the demanded
    /// evaluation was.
    pub fn query(&self, q: &Query) -> Result<QueryResult> {
        let out = match &self.backend {
            Backend::Incremental { engine, .. } => {
                let storage = engine.storage();
                let symbols = engine.symbols();
                self.queries.query(q, |pred, sink| {
                    if let Some(rel) = symbols.lookup(pred) {
                        for t in storage.external_id(rel) {
                            sink(t.clone());
                        }
                    }
                })
            }
            Backend::Oracle { edb, symbols, .. } => self.queries.query(q, |pred, sink| {
                if let Some(rel) = symbols.lookup(pred) {
                    if let Some(m) = edb.get(&rel) {
                        for (t, &c) in m {
                            if c > 0 {
                                sink(t.clone());
                            }
                        }
                    }
                }
            }),
        }?;
        self.metrics.queries.incr();
        self.metrics
            .query_derivations
            .add(out.stats.derivations as u64);
        self.metrics.query_answers.add(out.stats.answers as u64);
        Ok(out)
    }

    /// Is the tuple currently visible?
    pub fn contains(&self, pred: &str, tuple: &[Value]) -> bool {
        match &self.backend {
            Backend::Incremental { engine, .. } => engine.contains(pred, tuple),
            Backend::Oracle { db, symbols, .. } => symbols
                .lookup(pred)
                .is_some_and(|rel| db.contains(rel, tuple)),
        }
    }

    /// Number of visible tuples of a relation.
    pub fn len_of(&self, pred: &str) -> usize {
        match &self.backend {
            Backend::Incremental { engine, .. } => engine.len_of(pred),
            Backend::Oracle { db, symbols, .. } => {
                symbols.lookup(pred).map_or(0, |rel| db.len_of(rel))
            }
        }
    }

    /// Work counters of the initial fixpoint.
    pub fn init_stats(&self) -> BatchStats {
        match &self.backend {
            Backend::Incremental { engine, .. } => engine.init_stats(),
            Backend::Oracle { init_stats, .. } => *init_stats,
        }
    }

    /// The incremental backend's indexed store (`None` for the oracle).
    pub fn storage(&self) -> Option<&RelationStorage> {
        match &self.backend {
            Backend::Incremental { engine, .. } => Some(engine.storage()),
            Backend::Oracle { .. } => None,
        }
    }

    /// The shard router driving maintenance, when sharded.
    pub fn router(&self) -> Option<&ShardRouter> {
        match &self.backend {
            Backend::Incremental { router, .. } => router.as_deref(),
            Backend::Oracle { .. } => None,
        }
    }

    /// The wrapped incremental engine (`None` for the oracle) — for
    /// id-native callers that clone engines per state, like the model
    /// checker.
    pub fn engine(&self) -> Option<&IncrementalEngine> {
        match &self.backend {
            Backend::Incremental { engine, .. } => Some(engine),
            Backend::Oracle { .. } => None,
        }
    }

    /// Checkpoint the incremental backend's state as a versioned
    /// [`EngineSnapshot`] (`None` for the oracle backend, which keeps no
    /// restartable state).  Flush pending batched commits first if the
    /// snapshot must include them — the snapshot captures the *applied*
    /// fixpoint, not the open window.
    pub fn checkpoint(&self) -> Option<EngineSnapshot> {
        self.engine().map(|e| e.snapshot())
    }

    /// Restore a [`checkpoint`](Self::checkpoint) into the incremental
    /// backend: the database rewinds to the snapshotted fixpoint and
    /// maintenance resumes from there.  Pending (unflushed) commits are
    /// discarded — they describe a timeline the restore abandons.  Errors
    /// on the oracle backend or on a snapshot from a different program.
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<()> {
        self.pending.clear();
        self.expiries.clear();
        self.metrics.pending.set(0);
        match &mut self.backend {
            Backend::Incremental { engine, .. } => engine.restore(snap),
            Backend::Oracle { .. } => Err(NdlogError::Eval {
                msg: "the oracle backend keeps no restorable engine state".into(),
            }),
        }
    }

    // --- observability ----------------------------------------------------

    /// The telemetry handle this session records through (the no-op sink
    /// unless [`SessionBuilder::telemetry`] enabled it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A deterministic, name-sorted snapshot of every metric recorded so
    /// far (empty when telemetry is disabled).  Relation-size gauges are
    /// refreshed from the live store first, so the snapshot always reflects
    /// the current database.
    ///
    /// Counter families — maintenance rounds included — and the z-set
    /// retraction-work histogram are identical across shard counts;
    /// phase-timing histograms, per-shard load splits and pool gauges are
    /// schedule-dependent (see `DESIGN.md` §10 for the exact determinism
    /// contract, pinned by the golden telemetry test).
    pub fn metrics(&self) -> Snapshot {
        match &self.backend {
            Backend::Incremental { engine, router } => {
                engine.storage().record_size_gauges(&self.telemetry);
                if let Some(r) = router {
                    r.record_pool_gauges(&self.telemetry);
                }
            }
            Backend::Oracle { db, symbols, .. } => {
                if self.telemetry.is_enabled() {
                    for i in 0..db.num_rels() {
                        let rel = RelId::from_index(i);
                        if db.len_of(rel) == 0 {
                            continue;
                        }
                        let name = symbols.name(rel);
                        self.telemetry
                            .gauge(&format!("ndlog_relation_tuples{{rel=\"{name}\"}}"))
                            .set(db.len_of(rel) as i64);
                    }
                }
            }
        }
        self.telemetry.snapshot()
    }

    /// Why are these tuples visible?  Provenance over the same addressing
    /// scheme as [`query`](Self::query): walks the incremental backend's
    /// support map to one rule-level derivation tree ([`Explanation`]) per
    /// visible tuple matching the query's binding pattern, in sorted tuple
    /// order.  Empty when nothing matches, and always empty on the oracle
    /// backend (from-scratch re-evaluation keeps no support counts to
    /// walk).
    pub fn explain(&self, q: &Query) -> Vec<Explanation> {
        match &self.backend {
            Backend::Incremental { engine, .. } => {
                let Some(rel) = engine.symbols().lookup(q.pred()) else {
                    return Vec::new();
                };
                engine
                    .storage()
                    .visible_id(rel)
                    .filter(|t| q.matches(t))
                    .filter_map(|t| engine.explain(q.pred(), t))
                    .collect()
            }
            Backend::Oracle { .. } => Vec::new(),
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field(
                "backend",
                &match &self.backend {
                    Backend::Incremental { router, .. } => match router {
                        Some(r) => format!("incremental({} shards)", r.shards()),
                        None => "incremental".into(),
                    },
                    Backend::Oracle { .. } => "oracle".into(),
                },
            )
            .field("now", &self.now)
            .field("window", &self.window)
            .field("pending", &self.pending.len())
            .field("expiries", &self.expiries.len())
            .finish()
    }
}

/// A transaction: a typed update list compiled to interned deltas once at
/// [`commit`](Txn::commit).
///
/// ```
/// use ndlog::update::{Session, Update};
///
/// let prog = ndlog::parse_program(
///     "r1 reach(X,Y) :- link(X,Y,C).
///      r2 reach(X,Y) :- link(X,Z,C), reach(Z,Y).",
/// )
/// .unwrap();
/// // A 4-tick window: commits buffer until the window closes.
/// let mut s = Session::open(&prog).batch_window(4).build().unwrap();
/// let buffered = s.txn().link_up(0, 1, 1).link_up(1, 2, 1).commit().unwrap();
/// assert!(!buffered.flushed);
/// // A flap inside the same window nets out before the engine runs:
/// s.txn().link_down(1, 2, 1).link_up(1, 2, 1).commit().unwrap();
/// let flushes = s.advance(4).unwrap();
/// assert_eq!(flushes.len(), 1, "one merged batch per window");
/// assert!(s.contains("reach", &[ndlog::Value::Addr(0), ndlog::Value::Addr(2)]));
/// ```
#[must_use = "a Txn does nothing until commit()"]
pub struct Txn<'s> {
    session: &'s mut Session,
    updates: Vec<Update>,
}

impl Txn<'_> {
    /// Add an assertion.
    pub fn assert(mut self, pred: impl Into<String>, tuple: Tuple) -> Self {
        self.updates.push(Update::assert(pred, tuple));
        self
    }

    /// Add a retraction.
    pub fn retract(mut self, pred: impl Into<String>, tuple: Tuple) -> Self {
        self.updates.push(Update::retract(pred, tuple));
        self
    }

    /// Add an undirected link-up event.
    pub fn link_up(mut self, src: u32, dst: u32, cost: i64) -> Self {
        self.updates.push(Update::link_up(src, dst, cost));
        self
    }

    /// Add an undirected link-down event.
    pub fn link_down(mut self, src: u32, dst: u32, cost: i64) -> Self {
        self.updates.push(Update::link_down(src, dst, cost));
        self
    }

    /// Add a metric change.
    pub fn metric_change(mut self, src: u32, dst: u32, old_cost: i64, new_cost: i64) -> Self {
        self.updates
            .push(Update::metric_change(src, dst, old_cost, new_cost));
        self
    }

    /// Add a timed expiration.
    pub fn expire(mut self, rel: impl Into<String>, tuple: Tuple, deadline: u64) -> Self {
        self.updates.push(Update::expire(rel, tuple, deadline));
        self
    }

    /// Add one prebuilt update.
    pub fn push(mut self, update: Update) -> Self {
        self.updates.push(update);
        self
    }

    /// Add a batch of prebuilt updates.
    pub fn extend(mut self, updates: impl IntoIterator<Item = Update>) -> Self {
        self.updates.extend(updates);
        self
    }

    /// Number of updates collected so far.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when no update was added.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Compile the updates to interned deltas once and hand them to the
    /// session: flushed immediately when unbatched, buffered into the open
    /// window otherwise.  Expirations (explicit or TTL-generated) go to the
    /// expiry queue.
    pub fn commit(self) -> Result<CommitOutcome> {
        let Txn { session, updates } = self;
        session.commit_updates(updates)
    }
}

/// Convenience: drive a whole update stream through one session, flushing
/// everything (including expirations due by the end of the stream), and
/// return the final database.  `stream` pairs each update with the delay
/// (in ticks) since the previous one.
pub fn replay(session: &mut Session, stream: &[(u64, Update)]) -> Result<Database> {
    for (dt, u) in stream {
        session.advance(*dt)?;
        session.txn().push(u.clone()).commit()?;
    }
    // Drain the open window and every scheduled expiry.
    let horizon = session
        .expiries
        .keys()
        .next_back()
        .copied()
        .unwrap_or(0)
        .saturating_sub(session.now)
        .max(session.window);
    session.advance(horizon)?;
    session.collect_due();
    session.flush()?;
    Ok(session.database())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;
    use crate::programs;

    fn addr(n: u32) -> Value {
        Value::Addr(n)
    }

    fn pv(edges: &[(u32, u32, i64)]) -> Program {
        let mut p = programs::path_vector();
        programs::add_links(&mut p, edges);
        p
    }

    #[test]
    fn txn_commit_matches_tupledelta_apply() {
        let edges = [(0, 1, 1), (1, 2, 2), (0, 2, 9)];
        let prog = pv(&edges);
        let mut engine = IncrementalEngine::new(&prog).unwrap();
        let mut session = Session::open(&prog).build().unwrap();
        assert_eq!(session.database(), engine.database());

        let want = engine
            .apply(&[
                TupleDelta::remove("link", vec![addr(0), addr(1), Value::Int(1)]),
                TupleDelta::remove("link", vec![addr(1), addr(0), Value::Int(1)]),
            ])
            .unwrap();
        let got = session.txn().link_down(0, 1, 1).commit().unwrap();
        assert!(got.flushed);
        assert_eq!(got.changes, want.changes);
        assert_eq!(got.stats, want.stats);
        assert_eq!(session.database(), engine.database());
    }

    #[test]
    fn session_checkpoint_restore_rewinds_and_resumes() {
        let edges = [(0, 1, 1), (1, 2, 2), (0, 2, 9)];
        let prog = pv(&edges);
        let mut session = Session::open(&prog).checkpoint_every(16).build().unwrap();
        let snap = session.checkpoint().expect("incremental backend");
        let before = session.database();
        session.txn().link_down(0, 1, 1).commit().unwrap();
        assert_ne!(session.database(), before);
        session.restore(&snap).unwrap();
        assert_eq!(session.database(), before);
        // Maintenance resumes cleanly from the restored fixpoint.
        session.txn().link_down(0, 1, 1).commit().unwrap();
        assert_eq!(
            session.database(),
            crate::eval::eval_program(&pv(&[(1, 2, 2), (0, 2, 9)])).unwrap()
        );
        // The oracle backend has nothing to checkpoint.
        let mut oracle = Session::open(&prog).oracle().unwrap();
        assert!(oracle.checkpoint().is_none());
        assert!(oracle.restore(&snap).is_err());
    }

    #[test]
    fn metric_change_is_atomic() {
        let prog = pv(&[(0, 1, 1), (1, 2, 2), (0, 2, 9)]);
        let mut session = Session::open(&prog).build().unwrap();
        assert!(session.contains("bestPathCost", &[addr(0), addr(2), Value::Int(3)]));
        let out = session.txn().metric_change(1, 2, 2, 7).commit().unwrap();
        assert!(out.flushed);
        // Best cost 0->2 is now the direct expensive link... 1+7=8 vs 9.
        assert!(session.contains("bestPathCost", &[addr(0), addr(2), Value::Int(8)]));
        assert_eq!(session.database(), {
            let scratch = pv(&[(0, 1, 1), (1, 2, 7), (0, 2, 9)]);
            crate::eval::eval_program(&scratch).unwrap()
        });
    }

    #[test]
    fn window_merges_and_nets_out_flaps() {
        let prog = pv(&[(0, 1, 1), (1, 2, 2)]);
        let mut session = Session::open(&prog).batch_window(10).build().unwrap();
        // Down then up inside one window: the engine never runs a batch
        // with the link absent.
        let a = session.txn().link_down(1, 2, 2).commit().unwrap();
        assert!(!a.flushed);
        let b = session.txn().link_up(1, 2, 2).commit().unwrap();
        assert!(!b.flushed);
        let flushes = session.advance(10).unwrap();
        assert_eq!(flushes.len(), 1);
        assert!(
            flushes[0].changes.is_empty(),
            "flap nets to zero inside the window: {:?}",
            flushes[0].changes
        );
        assert!(session.contains("bestPathCost", &[addr(0), addr(2), Value::Int(3)]));
    }

    #[test]
    fn windowed_final_state_matches_unbatched() {
        let edges = [(0, 1, 1), (1, 2, 2), (0, 2, 9), (2, 3, 1)];
        let prog = pv(&edges);
        let stream = vec![
            (3u64, Update::link_down(0, 1, 1)),
            (4, Update::metric_change(0, 2, 9, 2)),
            (1, Update::link_up(0, 1, 1)),
            (9, Update::link_down(2, 3, 1)),
        ];
        let mut unbatched = Session::open(&prog).build().unwrap();
        let want = replay(&mut unbatched, &stream).unwrap();
        for window in [1u64, 4, 16] {
            let mut s = Session::open(&prog).batch_window(window).build().unwrap();
            let got = replay(&mut s, &stream).unwrap();
            assert_eq!(got, want, "window {window} diverges");
        }
        // The oracle backend agrees byte-for-byte.
        let mut oracle = Session::open(&prog).batch_window(4).oracle().unwrap();
        assert_eq!(replay(&mut oracle, &stream).unwrap(), want);
    }

    #[test]
    fn oracle_and_incremental_report_same_changes_unbatched() {
        let prog = pv(&[(0, 1, 1), (1, 2, 2)]);
        let mut inc = Session::open(&prog).build().unwrap();
        let mut ora = Session::open(&prog).oracle().unwrap();
        let a = inc.txn().link_down(1, 2, 2).commit().unwrap();
        let b = ora.txn().link_down(1, 2, 2).commit().unwrap();
        assert_eq!(a.changes, b.changes);
        assert_eq!(inc.database(), ora.database());
    }

    #[test]
    fn soft_state_expires_and_refreshes() {
        let prog = parse_program("r1 reach(X,Y) :- link(X,Y,C).").unwrap();
        let policy = TtlPolicy::new().with("link", 10);
        let mut s = Session::open(&prog).soft_state(policy).build().unwrap();
        let t = vec![addr(0), addr(1), Value::Int(1)];
        s.txn().assert("link", t.clone()).commit().unwrap();
        assert!(s.contains("reach", &[addr(0), addr(1)]));

        // Refresh at t=6: the new copy lives until 16.
        s.advance(6).unwrap();
        s.txn().assert("link", t.clone()).commit().unwrap();
        let outs = s.advance(6).unwrap(); // t=12: first copy expired
        assert!(outs
            .iter()
            .all(|o| o.changes.iter().all(|c| c.delta > 0 || c.pred != "reach")));
        assert!(s.contains("reach", &[addr(0), addr(1)]), "refresh extends");

        s.advance(10).unwrap(); // t=22: second copy expired too
        assert!(!s.contains("reach", &[addr(0), addr(1)]), "ttl elapsed");
    }

    /// TTL deadlines anchor to the commit tick (window-independence of the
    /// final state requires it), so a soft tuple whose lifetime ends inside
    /// the open window nets out at the flush — the documented trade.
    #[test]
    fn ttl_shorter_than_window_nets_out_at_the_flush() {
        let prog = parse_program("r1 reach(X,Y) :- link(X,Y,C).").unwrap();
        let policy = TtlPolicy::new().with("link", 4);
        let mut s = Session::open(&prog)
            .batch_window(16)
            .soft_state(policy)
            .build()
            .unwrap();
        s.txn()
            .assert("link", vec![addr(0), addr(1), Value::Int(1)])
            .commit()
            .unwrap();
        let outs = s.advance(16).unwrap();
        assert_eq!(outs.len(), 1);
        assert!(
            outs[0].changes.is_empty(),
            "lifetime elapsed inside the window: nothing surfaces"
        );
        assert!(!s.contains("reach", &[addr(0), addr(1)]));
    }

    #[test]
    fn ttl_policy_reads_materialize_declarations() {
        let prog = parse_program(
            "materialize(link, 25, infinity, keys(1,2)).
             r1 reach(X,Y) :- link(X,Y,C).",
        )
        .unwrap();
        let policy = TtlPolicy::from_program(&prog);
        assert_eq!(policy.ttl_of("link"), Some(25));
        assert_eq!(policy.ttl_of("reach"), None);
    }

    #[test]
    fn explicit_expire_fires_at_deadline() {
        let prog = parse_program("r1 d(X) :- e(X).").unwrap();
        let mut s = Session::open(&prog).build().unwrap();
        let one = vec![Value::Int(1)];
        s.txn()
            .assert("e", one.clone())
            .expire("e", one.clone(), 5)
            .commit()
            .unwrap();
        assert!(s.contains("d", &one));
        s.advance(4).unwrap();
        assert!(s.contains("d", &one), "deadline not reached");
        let outs = s.advance(1).unwrap();
        assert!(!s.contains("d", &one));
        assert_eq!(outs.len(), 1);
        assert!(outs[0].changes.iter().any(|c| c.pred == "d" && c.delta < 0));
    }

    #[test]
    fn sharded_session_matches_single_threaded() {
        let prog = pv(&[(0, 1, 1), (1, 2, 2), (0, 2, 9), (2, 3, 1)]);
        let mut single = Session::open(&prog).build().unwrap();
        let mut sharded = Session::open(&prog).sharding(4).build().unwrap();
        assert!(sharded.router().is_some());
        assert_eq!(single.database(), sharded.database());
        for txn in [
            Update::link_down(0, 1, 1),
            Update::metric_change(0, 2, 9, 3),
            Update::link_up(0, 1, 1),
        ] {
            let a = single.txn().push(txn.clone()).commit().unwrap();
            let b = sharded.txn().push(txn).commit().unwrap();
            assert_eq!(a.changes, b.changes);
            assert_eq!(single.database(), sharded.database());
        }
    }

    #[test]
    fn divergent_program_is_rejected_at_build() {
        let prog = parse_program("a q(N) :- q(M), N = M + 1. q(0).").unwrap();
        let err = Session::open(&prog)
            .eval_options(EvalOptions {
                max_iterations: 50,
                max_tuples: 1_000_000,
            })
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn session_stats_count_txns_and_flushes() {
        let prog = pv(&[(0, 1, 1)]);
        let mut s = Session::open(&prog).batch_window(4).build().unwrap();
        s.txn().link_down(0, 1, 1).commit().unwrap();
        s.txn().link_up(0, 1, 1).commit().unwrap();
        assert_eq!(s.stats().txns, 2);
        assert_eq!(s.stats().flushes, 0);
        s.advance(4).unwrap();
        assert_eq!(s.stats().flushes, 1);
        assert_eq!(s.stats().updates, 2);
    }
}
