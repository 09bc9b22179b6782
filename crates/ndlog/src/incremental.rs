//! Incremental view maintenance for NDlog under churn.
//!
//! The epoch model — throw away all derived state and re-run semi-naive
//! evaluation whenever an input fact changes — is what the paper's runtime
//! does, and it is exactly the gap between verified models and deployable
//! systems that the continuous-verification literature flags: real routing
//! workloads are dominated by link flaps and metric changes.  This module
//! maintains the derived database **delta-by-delta** instead:
//!
//! * **Counting** (Gupta–Mumick–Subrahmanian) for non-recursive strata: every
//!   tuple carries its exact number of supporting rule firings; insertions
//!   and deletions propagate as signed delta-rule evaluations
//!   (`Δ(R₁ ⋈ … ⋈ Rₙ) = Σᵢ new[<i] ⋈ Δᵢ ⋈ old[>i]`), and a tuple dies
//!   exactly when its count reaches zero.  Stratified negation is handled by
//!   sign-flipping the delta of the negated relation.
//! * **Z-set maintenance** for recursive strata: the same signed-count
//!   delta propagation as the counting path — retractions travel as
//!   negative multiplicities — plus a backward well-foundedness check on
//!   the tuples that actually lost a firing, so deletion cost is
//!   proportional to the true support change, not to the deletion's
//!   downward closure.  Strata are split into per-SCC sub-plans so only
//!   genuine cycles pay the verification pass.  It is the only
//!   recursive-stratum algorithm; the from-scratch kernel
//!   ([`crate::eval::Evaluator::run`]) is its differential reference.
//! * **Recompute-diff** for aggregate rules (`min`/`max`/`count`/`sum`):
//!   their bodies live strictly below their stratum, so when an input
//!   changed the rule is re-evaluated over the maintained inputs and the
//!   output set is diffed against the previous one.
//!
//! All joins run over the indexed [`RelationStorage`](crate::storage) —
//! hash probes on the rules' static join-key binding patterns instead of the
//! linear `BTreeSet` scans of the from-scratch evaluator.
//!
//! # Interned hot path
//!
//! The maintenance loops work entirely in dense [`RelId`]s and shared
//! [`SharedTuple`] handles (see [`crate::symbols`], DESIGN.md §8): rules are
//! compiled once into an internal form holding the interned ids of their
//! head and body atoms, round-to-round delta maps are
//! [`crate::storage::SignedDeltas`] keyed by id, and a rule
//! firing accumulates into a `(RelId, Tuple)`-keyed map — **no relation-name
//! `String` is cloned or compared per firing**.  Names reappear only at the
//! [`apply`](IncrementalEngine::apply) boundary; id-native callers (the
//! distributed runtime, the model checker) use
//! [`apply_interned`](IncrementalEngine::apply_interned) and skip the
//! translation entirely.
//!
//! External inputs are *multisets*: [`TupleDelta`] carries a signed
//! multiplicity, so two neighbors asserting the same tuple and one later
//! retracting it leaves the tuple alive.  This is what the distributed
//! runtime needs to pipe link-change retractions through the network.

use crate::algo::{BfsReachability, DijkstraPaths, NativeShape};
use crate::ast::{HeadArg, Literal, Program, Rule, Term};
use crate::error::{NdlogError, Result};
use crate::eval::{
    aggregate, eval_expr, instantiate_head, match_atom, Database, Env, EvalOptions, IdDatabase,
};
use crate::safety::{analyze, Analysis};
use crate::sharded::{chunk_by, fan_out, ShardRouter};
use crate::storage::{RelationStorage, SignedDeltas, VisibilityChange};
use crate::symbols::{RelId, Symbols};
use crate::value::{SharedTuple, Tuple, Value};
use fvn_telemetry::{Counter, Histogram, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// An external change to a base (EDB) relation: a signed multiplicity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TupleDelta {
    /// Relation name.
    pub pred: String,
    /// The tuple.
    pub tuple: Tuple,
    /// Signed multiplicity change (`+1` assert, `-1` retract).
    pub delta: i64,
}

impl TupleDelta {
    /// An assertion (`+1`).
    pub fn insert(pred: impl Into<String>, tuple: Tuple) -> Self {
        TupleDelta {
            pred: pred.into(),
            tuple,
            delta: 1,
        }
    }

    /// A retraction (`-1`).
    pub fn remove(pred: impl Into<String>, tuple: Tuple) -> Self {
        TupleDelta {
            pred: pred.into(),
            tuple,
            delta: -1,
        }
    }
}

/// The interned form of [`TupleDelta`]: a dense relation id plus a shared
/// tuple handle.  This is what the hot path consumes and produces — the
/// distributed runtime ships these between nodes (whose engines are cloned
/// from one prototype, so ids agree) and the model checker replays churn
/// schedules without re-interning per transition.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RelDelta {
    /// Interned relation id (valid for the engine that produced/consumes it).
    pub rel: RelId,
    /// The tuple (shared handle, cheap to clone).
    pub tuple: SharedTuple,
    /// Signed multiplicity change (`+1` assert, `-1` retract).
    pub delta: i64,
}

impl RelDelta {
    /// An assertion (`+1`).
    pub fn insert(rel: RelId, tuple: impl Into<SharedTuple>) -> Self {
        RelDelta {
            rel,
            tuple: tuple.into(),
            delta: 1,
        }
    }

    /// A retraction (`-1`).
    pub fn remove(rel: RelId, tuple: impl Into<SharedTuple>) -> Self {
        RelDelta {
            rel,
            tuple: tuple.into(),
            delta: -1,
        }
    }
}

/// Work and effect counters for one maintenance batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Rule firings evaluated (the same metric as
    /// [`EvalStats::derivations`](crate::eval::EvalStats)), summed over
    /// counting rounds, z-set propagation and verification, aggregate
    /// recomputes and native operator output.
    pub derivations: usize,
    /// Tuples whose visibility flipped to present.
    pub inserted: usize,
    /// Tuples whose visibility flipped to absent.
    pub deleted: usize,
    /// Delta propagation rounds across strata and phases.
    pub rounds: usize,
}

impl std::ops::AddAssign for BatchStats {
    fn add_assign(&mut self, rhs: Self) {
        self.derivations += rhs.derivations;
        self.inserted += rhs.inserted;
        self.deleted += rhs.deleted;
        self.rounds += rhs.rounds;
    }
}

/// The result of applying one batch of external deltas.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Net visibility changes across *all* relations (derived included),
    /// `delta = +1` for appeared and `-1` for disappeared, in deterministic
    /// order.  This is what a distributed node ships to tuple owners.
    pub changes: Vec<TupleDelta>,
    /// Work counters for the batch.
    pub stats: BatchStats,
}

/// The id-native result of [`IncrementalEngine::apply_interned`]: the same
/// net changes as [`BatchOutcome`], but carrying interned ids and shared
/// tuple handles — nothing is stringified or deep-copied.
#[derive(Debug, Clone, Default)]
pub struct InternedOutcome {
    /// Net visibility changes in deterministic `(rel, tuple, delta)` order.
    pub changes: Vec<RelDelta>,
    /// Work counters for the batch.
    pub stats: BatchStats,
}

/// A rule compiled against the engine's symbol table: the AST plus the
/// interned ids of its head and body atoms, resolved once at construction
/// so the maintenance inner loops never look up a name.
#[derive(Debug, Clone)]
pub(crate) struct CompiledRule {
    pub(crate) rule: Rule,
    pub(crate) head: RelId,
    /// Per body literal: the atom's id (`None` for assignments/comparisons).
    pub(crate) body_rels: Vec<Option<RelId>>,
}

impl CompiledRule {
    fn compile(rule: Rule, symbols: &Symbols) -> Self {
        let head = symbols
            .lookup(&rule.head.pred)
            .expect("head predicate interned at analysis");
        let body_rels = rule
            .body
            .iter()
            .map(|l| match l {
                Literal::Pos(a) | Literal::Neg(a) => Some(
                    symbols
                        .lookup(&a.pred)
                        .expect("body predicate interned at analysis"),
                ),
                _ => None,
            })
            .collect();
        CompiledRule {
            rule,
            head,
            body_rels,
        }
    }

    /// Unify the ground `tuple` with the head, pre-binding the head
    /// variables — the probe shape of the well-foundedness check and of
    /// provenance walks.  `None` when the tuple does not match; aggregate
    /// heads never unify.
    pub(crate) fn unify_head(&self, tuple: &[Value]) -> Option<Env> {
        if self.rule.head.args.len() != tuple.len() {
            return None;
        }
        let mut env = Env::new();
        for (arg, val) in self.rule.head.args.iter().zip(tuple) {
            match arg {
                HeadArg::Term(Term::Const(c)) => {
                    if c != val {
                        return None;
                    }
                }
                HeadArg::Term(Term::Var(v)) => match env.get(v) {
                    Some(b) if b != val => return None,
                    Some(_) => {}
                    None => {
                        env.insert(v.clone(), val.clone());
                    }
                },
                HeadArg::Agg(..) => return None,
            }
        }
        Some(env)
    }

    /// Delta positions of the body for which the caller holds changes:
    /// `(position, rel, negated)`.
    fn delta_positions(&self) -> impl Iterator<Item = (usize, RelId, bool)> + '_ {
        self.rule
            .body
            .iter()
            .zip(&self.body_rels)
            .enumerate()
            .filter_map(|(i, (l, rel))| match l {
                Literal::Pos(_) => Some((i, rel.expect("atom has id"), false)),
                Literal::Neg(_) => Some((i, rel.expect("atom has id"), true)),
                _ => None,
            })
    }
}

/// One maintenance sub-plan: the rules of a single SCC of a stratum's
/// positive head-dependency graph, fixed at engine construction.
///
/// Strata are decomposed into SCC sub-plans in topological order (see
/// [`build_plans`]): batch visibility marks accumulate until
/// `take_changes`, so running the sub-plans sequentially is exactly the
/// existing stratum sequencing — each sub-plan sees the lower components'
/// changes as finalized deltas.  Only components with a genuine cycle are
/// `recursive`; everything else keeps plain counting even when it shares a
/// stratum with a cycle.
#[derive(Debug, Clone)]
pub(crate) struct StratumPlan {
    /// Aggregate rules, keyed by their global rule index (stable key for the
    /// previous-output cache).  Attached to the stratum's first sub-plan:
    /// aggregate bodies live strictly below their stratum, so they are
    /// final before any of the stratum's plain components run.
    pub(crate) aggs: Vec<(usize, CompiledRule)>,
    /// Plain rules in safe body order.
    pub(crate) plain: Vec<CompiledRule>,
    /// Relations occurring in plain-rule bodies (positively or negatively).
    body_preds: BTreeSet<RelId>,
    /// True when the component's head predicates form a dependency cycle —
    /// maintained by z-set instead of counting.
    recursive: bool,
    /// Native-operator plan for this component, when the recognizer proved
    /// the component equivalent to a graph algorithm **and** the component
    /// is exactly the recognized rule pair (checked at attachment).  Only
    /// consulted when the engine's `native_ops` knob is on and the store is
    /// not in distributed mode; `plain` stays intact either way so the
    /// provenance walker and the semi-naive fallback see the same rules.
    pub(crate) native: Option<crate::algo::NativeShape>,
}

/// Pre-resolved telemetry handles for the incremental engine.
///
/// The default is the no-op sink: every record site pays one inline branch
/// (EXP-13 pins the disabled path zero-alloc).  Resolving against an
/// enabled [`Telemetry`] registers the engine's counter/gauge/histogram
/// series once; the maintenance loops then record through lock-free atomic
/// handles.  Cloned engines share the handles, so a fleet of clones (one
/// per distributed node) aggregates into one registry.
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineMetrics {
    /// Kept so sharding changes can re-resolve the per-shard series.
    telemetry: Telemetry,
    /// `ndlog_batches_total`: delta batches applied.
    batches: Counter,
    /// `ndlog_derivations_total`: every maintenance rule firing.
    derivations: Counter,
    /// `ndlog_maintenance_rounds_total`: counting and z-set propagation
    /// rounds, z-set death passes and native operator runs.
    rounds: Counter,
    /// `ndlog_tuples_inserted_total`: net tuples that became visible.
    inserted: Counter,
    /// `ndlog_tuples_deleted_total`: net tuples that lost visibility.
    deleted: Counter,
    /// `ndlog_phase_aggregates_ns`: group-incremental aggregate recompute.
    phase_aggregates: Histogram,
    /// `ndlog_phase_counting_ns`: counting maintenance per stratum batch.
    phase_counting: Histogram,
    /// `ndlog_phase_zset_propagate_ns`: signed-count delta propagation in
    /// z-set maintenance (initial batch and death rounds).
    phase_zset_propagate: Histogram,
    /// `ndlog_phase_zset_verify_ns`: the well-foundedness verification loop
    /// (spans death re-propagation, so it overlaps the propagate series).
    phase_zset_verify: Histogram,
    /// `ndlog_zset_retraction_work`: per recursive-component batch, the
    /// suspects examined + verification derivations + death-round
    /// propagation derivations — the z-set cost of retractions, which
    /// EXP-14 pins proportional to the true support change.  Deterministic
    /// across runs *and* shard counts (propagation partitions sink calls
    /// exactly; verification is single-threaded on a deterministic state).
    zset_work: Histogram,
    /// `ndlog_algo_invocations_total`: native-operator runs (initial
    /// materializations and scoped churn re-runs).  Shard-independent:
    /// native operators execute single-threaded on the main store.
    algo_invocations: Counter,
    /// `ndlog_algo_fallbacks_total`: recursive-stratum batches the native
    /// layer declined — unrecognized shapes plus runtime hand-backs (e.g.
    /// path-vector churn goes back to the delta engine).
    algo_fallbacks: Counter,
    /// `ndlog_algo_output_tuples_total`: tuples materialized by native
    /// operators (computed rows, before diffing against the store).
    algo_output: Counter,
    /// `ndlog_phase_algo_ns`: wall time inside native operator runs.
    phase_algo: Histogram,
    /// `ndlog_shard_derivations_total{shard="k"}`: rule firings per worker
    /// — the live form of EXP-10's load-balance table.
    shard_derivations: Vec<Counter>,
    /// `ndlog_shard_tuples_total{shard="k"}`: tuples each worker
    /// contributed at round barriers.
    shard_tuples: Vec<Counter>,
}

impl EngineMetrics {
    fn resolve(t: &Telemetry, shards: usize) -> Self {
        let series = |family: &str| -> Vec<Counter> {
            (0..shards)
                .map(|k| t.counter(&format!("{family}{{shard=\"{k}\"}}")))
                .collect()
        };
        EngineMetrics {
            telemetry: t.clone(),
            batches: t.counter("ndlog_batches_total"),
            derivations: t.counter("ndlog_derivations_total"),
            rounds: t.counter("ndlog_maintenance_rounds_total"),
            inserted: t.counter("ndlog_tuples_inserted_total"),
            deleted: t.counter("ndlog_tuples_deleted_total"),
            phase_aggregates: t.histogram("ndlog_phase_aggregates_ns"),
            phase_counting: t.histogram("ndlog_phase_counting_ns"),
            phase_zset_propagate: t.histogram("ndlog_phase_zset_propagate_ns"),
            phase_zset_verify: t.histogram("ndlog_phase_zset_verify_ns"),
            zset_work: t.histogram("ndlog_zset_retraction_work"),
            algo_invocations: t.counter("ndlog_algo_invocations_total"),
            algo_fallbacks: t.counter("ndlog_algo_fallbacks_total"),
            algo_output: t.counter("ndlog_algo_output_tuples_total"),
            phase_algo: t.histogram("ndlog_phase_algo_ns"),
            shard_derivations: series("ndlog_shard_derivations_total"),
            shard_tuples: series("ndlog_shard_tuples_total"),
        }
    }

    /// Record one worker's contribution at a round barrier.  Disabled
    /// telemetry keeps the series vectors empty, so this is two bound
    /// checks on the no-op path.
    fn shard_load(&self, k: usize, tuples: usize, derivations: usize) {
        if let Some(c) = self.shard_derivations.get(k) {
            c.add(derivations as u64);
        }
        if let Some(c) = self.shard_tuples.get(k) {
            c.add(tuples as u64);
        }
    }
}

/// The incremental maintenance engine.
///
/// Built once per program; [`apply`](Self::apply) consumes batches of
/// external deltas and returns the net derived-tuple changes.  Equality and
/// ordering compare the canonical database state (supports the model
/// checker's visited-state set).
///
/// # Example
///
/// ```
/// use ndlog::{parse_program, IncrementalEngine, TupleDelta, Value};
///
/// let prog = parse_program(
///     "r1 reach(X,Y) :- edge(X,Y).
///      r2 reach(X,Y) :- edge(X,Z), reach(Z,Y).
///      edge(1,2). edge(2,3).",
/// )
/// .unwrap();
/// let mut engine = IncrementalEngine::new(&prog).unwrap();
/// assert!(engine.contains("reach", &vec![Value::Int(1), Value::Int(3)]));
/// // A retraction maintains the fixpoint delta-by-delta (z-set
/// // maintenance here: `reach` is recursive), reporting the net changes:
/// let out = engine
///     .apply(&[TupleDelta::remove("edge", vec![Value::Int(2), Value::Int(3)])])
///     .unwrap();
/// assert!(out.changes.iter().any(|c| c.pred == "reach" && c.delta == -1));
/// assert!(!engine.contains("reach", &vec![Value::Int(1), Value::Int(3)]));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalEngine {
    /// Shared immutable compilation products: cloning an engine (one per
    /// distributed node, one per model-checking state) must not deep-copy
    /// the program.
    analysis: Arc<Analysis>,
    opts: EvalOptions,
    storage: RelationStorage,
    plans: Arc<Vec<StratumPlan>>,
    /// Previous outputs per aggregate rule (global rule index → group key →
    /// output tuple), enabling group-incremental aggregate maintenance.
    agg_prev: BTreeMap<usize, BTreeMap<Tuple, Tuple>>,
    init_stats: BatchStats,
    /// When set, maintenance rounds fan out across the router's persistent
    /// shard workers (see [`crate::sharded`]); results are byte-identical
    /// either way, so this is purely an execution-strategy knob.
    sharding: Option<Arc<ShardRouter>>,
    /// Execute recognized recursive strata with native graph operators
    /// (default on; off is the differential baseline).  May be toggled at
    /// any quiescent point: both paths store identical support counts.
    native_ops: bool,
    /// Telemetry sinks (no-op by default); excluded from equality, which
    /// compares canonical database state only.
    metrics: EngineMetrics,
}

/// Versioned in-memory snapshot of an [`IncrementalEngine`]'s mutable
/// state — the snapshot format v1 from the ROADMAP: the full
/// [`RelationStorage`] (EDB/derived support counts, indexes, export split)
/// plus the per-aggregate previous outputs.  Taken by
/// [`IncrementalEngine::snapshot`], restored by
/// [`IncrementalEngine::restore`]; the distributed runtime checkpoints
/// nodes with it so a crashed node can rejoin warm instead of replaying
/// churn from genesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    version: u32,
    storage: RelationStorage,
    agg_prev: BTreeMap<usize, BTreeMap<Tuple, Tuple>>,
}

impl EngineSnapshot {
    /// The snapshot format version this build writes and accepts.
    pub const VERSION: u32 = 1;

    /// The format version stamped into this snapshot.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Approximate in-memory footprint of the snapshot's data in bytes
    /// (storage only; the aggregate cache is typically negligible).
    pub fn approx_bytes(&self) -> usize {
        self.storage.approx_bytes()
    }
}

impl PartialEq for IncrementalEngine {
    fn eq(&self, other: &Self) -> bool {
        self.storage == other.storage
    }
}

impl Eq for IncrementalEngine {}

impl PartialOrd for IncrementalEngine {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IncrementalEngine {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.storage.cmp(&other.storage)
    }
}

impl IncrementalEngine {
    /// Analyze `prog`, build the maintenance plans, and evaluate the
    /// program's ground facts to a first fixpoint.
    pub fn new(prog: &Program) -> Result<Self> {
        Self::build(prog, EvalOptions::default())
    }

    pub(crate) fn build(prog: &Program, opts: EvalOptions) -> Result<Self> {
        let mut engine = Self::from_analysis(analyze(prog)?, opts);
        engine.seed_facts(prog)?;
        Ok(engine)
    }

    /// Load `prog`'s ground facts as one delta batch and record the
    /// resulting work counters as the engine's initial-fixpoint stats.
    /// Shared by [`new`](Self::new) and the session/sharded builders
    /// (which must enable sharding before the first batch).
    pub(crate) fn seed_facts(&mut self, prog: &Program) -> Result<BatchStats> {
        let deltas: Vec<RelDelta> = prog
            .facts
            .iter()
            .map(|f| {
                let tuple = f.const_tuple().expect("facts are ground (parser-enforced)");
                RelDelta::insert(self.storage.rel_id(&f.pred), tuple)
            })
            .collect();
        let outcome = self.apply_interned(&deltas)?;
        self.init_stats = outcome.stats;
        Ok(outcome.stats)
    }

    /// Build an engine over an already-analyzed program with **no** facts
    /// loaded — the distributed runtime seeds each node's base separately.
    pub fn from_analysis(analysis: Analysis, opts: EvalOptions) -> Self {
        let plans = build_plans(&analysis);
        // Only the z-set well-foundedness check (recursive-strata plain
        // rules) and group-restricted aggregation probe with the head
        // pre-bound on the maintenance path (`explain` reuses the same
        // patterns); registering those patterns elsewhere would add index
        // maintenance with no hot-path reader.
        let recursive_heads: BTreeSet<RelId> = plans
            .iter()
            .filter(|p| p.recursive)
            .flat_map(|p| p.plain.iter().map(|r| r.head))
            .collect();
        let mut storage = RelationStorage::with_symbols(analysis.symbols.clone());
        let empty = BTreeSet::new();
        for rule in &analysis.rules {
            register_rule_indexes(&mut storage, rule, &empty);
            let head_id = analysis.symbols.lookup(&rule.head.pred);
            if rule.head.has_agg() || head_id.is_some_and(|h| recursive_heads.contains(&h)) {
                let prebind: BTreeSet<String> = rule
                    .head
                    .args
                    .iter()
                    .filter_map(|a| match a {
                        HeadArg::Term(Term::Var(v)) => Some(v.clone()),
                        _ => None,
                    })
                    .collect();
                register_rule_indexes(&mut storage, rule, &prebind);
            }
        }
        let plans = Arc::new(plans);
        IncrementalEngine {
            analysis: Arc::new(analysis),
            opts,
            storage,
            plans,
            agg_prev: BTreeMap::new(),
            init_stats: BatchStats::default(),
            sharding: None,
            native_ops: true,
            metrics: EngineMetrics::default(),
        }
    }

    /// Enable or disable native graph operators for recognized recursive
    /// strata (on by default).  Disabled, every stratum runs pure
    /// semi-naive maintenance — the differential baseline; the visible
    /// databases *and* support maps are byte-identical either way.
    pub fn set_native_ops(&mut self, on: bool) {
        self.native_ops = on;
    }

    /// Whether native graph operators are enabled.
    pub fn native_ops(&self) -> bool {
        self.native_ops
    }

    /// One line per stratum plan carrying a native operator, for plan
    /// snapshots (`tests/golden`); empty when nothing was recognized.
    pub fn native_plan_descriptions(&self) -> Vec<String> {
        self.plans
            .iter()
            .filter_map(|p| p.native.as_ref())
            .map(|shape| shape.describe(self.storage.symbols()))
            .collect()
    }

    /// Fan maintenance rounds out across `router`'s shard workers (`None`
    /// restores single-threaded execution).  May be toggled at any time:
    /// sharding changes how rounds are evaluated, never what they produce.
    pub fn set_sharding(&mut self, router: Option<Arc<ShardRouter>>) {
        self.sharding = router;
        // Re-resolve so the per-shard load series matches the new width.
        if self.metrics.telemetry.is_enabled() {
            let t = self.metrics.telemetry.clone();
            self.set_telemetry(&t);
        }
    }

    /// Route this engine's counters and phase timers into `t`.
    ///
    /// Registers the `ndlog_*` series (batches, derivations, maintenance
    /// rounds, inserted/deleted tuples, per-phase histograms, and one
    /// `…{shard="k"}` load counter pair per worker).  The default sink is
    /// the no-op variant; see [`crate::update::SessionBuilder::telemetry`]
    /// for the front-door knob.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        let shards = self.sharding.as_ref().map_or(1, |r| r.shards());
        self.metrics = EngineMetrics::resolve(t, shards);
    }

    /// The per-stratum maintenance plans (provenance walker support).
    pub(crate) fn plans(&self) -> &[StratumPlan] {
        &self.plans
    }

    /// The shard router currently driving maintenance, if any.
    pub fn sharding(&self) -> Option<&ShardRouter> {
        self.sharding.as_deref()
    }

    /// The static analysis backing this engine.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The engine's symbol table (dense ids for every program relation).
    pub fn symbols(&self) -> &Symbols {
        self.storage.symbols()
    }

    /// Intern `pred` in the engine's store (a no-op hash lookup for every
    /// program predicate).  Lets id-native callers pre-translate external
    /// schedules that may mention relations the program never derives.
    pub fn rel_id(&mut self, pred: &str) -> RelId {
        self.storage.rel_id(pred)
    }

    /// Enter distributed mode as node `me`: derived tuples homed at another
    /// node are support-tracked and reported in batch outcomes (so the
    /// runtime can ship assertions and retractions) but stay invisible to
    /// local rule evaluation — localized rules must only join over tuples
    /// homed here.  Must be called before any deltas are applied.
    pub fn set_home(&mut self, me: u32) {
        self.storage.set_home(me, &self.analysis.location);
    }

    /// Work counters of the initial fixpoint computed by [`new`](Self::new).
    pub fn init_stats(&self) -> BatchStats {
        self.init_stats
    }

    /// The backing store.
    pub fn storage(&self) -> &RelationStorage {
        &self.storage
    }

    /// Capture a versioned snapshot of the engine's mutable state: the
    /// relation store (supports, indexes, export split, batch marks) plus
    /// the previous aggregate outputs that make group-incremental
    /// aggregation restartable.  Compilation products (analysis, plans)
    /// are deliberately excluded — they are rebuilt from the program and
    /// shared by `Arc`, so a snapshot costs only the data.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            version: EngineSnapshot::VERSION,
            storage: self.storage.clone(),
            agg_prev: self.agg_prev.clone(),
        }
    }

    /// Restore a snapshot taken from an engine built over the **same
    /// program** (checked via format version and symbol-table width; a
    /// mismatch is an error and leaves the engine untouched).  Execution
    /// knobs — sharding, native operators, telemetry, home — are not part
    /// of the snapshot and keep their current values.
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<()> {
        if snap.version != EngineSnapshot::VERSION {
            return Err(NdlogError::Eval {
                msg: format!(
                    "snapshot format v{} is not the supported v{}",
                    snap.version,
                    EngineSnapshot::VERSION
                ),
            });
        }
        if snap.storage.symbols().len() != self.storage.symbols().len() {
            return Err(NdlogError::Eval {
                msg: format!(
                    "snapshot of a different program: {} relations vs {}",
                    snap.storage.symbols().len(),
                    self.storage.symbols().len()
                ),
            });
        }
        self.storage = snap.storage.clone();
        self.agg_prev = snap.agg_prev.clone();
        Ok(())
    }

    /// Is the tuple currently visible?
    pub fn contains(&self, pred: &str, tuple: &[Value]) -> bool {
        self.symbols()
            .lookup(pred)
            .is_some_and(|rel| self.storage.contains_id(rel, tuple))
    }

    /// Number of visible tuples of a relation.
    pub fn len_of(&self, pred: &str) -> usize {
        self.symbols()
            .lookup(pred)
            .map_or(0, |rel| self.storage.len_of_id(rel))
    }

    /// Materialize the current visible database.
    pub fn database(&self) -> Database {
        self.storage.to_database()
    }

    /// Materialize the current visible database id-native: tuples stay
    /// [`SharedTuple`] handles keyed by this engine's
    /// [`symbols`](Self::symbols), skipping [`database`](Self::database)'s
    /// name rendering and deep tuple clones.
    pub fn id_database(&self) -> IdDatabase {
        let mut db = IdDatabase::new();
        for rel in self.storage.relation_ids() {
            for t in self.storage.visible_id(rel) {
                db.insert(rel, t.clone());
            }
        }
        db
    }

    /// Apply one batch of external deltas and maintain every stratum.
    ///
    /// The name-keyed convenience wrapper around
    /// [`apply_interned`](Self::apply_interned): predicates are interned on
    /// the way in and net changes are rendered back to names (sorted by
    /// name) on the way out.
    ///
    /// Errors leave the engine in an unspecified state (the caller should
    /// discard it), matching the from-scratch evaluator's contract.
    pub fn apply(&mut self, deltas: &[TupleDelta]) -> Result<BatchOutcome> {
        let interned: Vec<RelDelta> = deltas
            .iter()
            .map(|d| RelDelta {
                rel: self.storage.rel_id(&d.pred),
                tuple: SharedTuple::from_slice(&d.tuple),
                delta: d.delta,
            })
            .collect();
        let out = self.apply_interned(&interned)?;
        let symbols = self.storage.symbols();
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
        Ok(BatchOutcome {
            changes,
            stats: out.stats,
        })
    }

    /// Apply one batch of **interned** external deltas and maintain every
    /// stratum — the hot-path form of [`apply`](Self::apply): no name is
    /// interned, compared, or rendered, and the returned changes share
    /// tuple handles with the store.
    ///
    /// The ids must come from this engine's [`symbols`](Self::symbols)
    /// table (or that of the prototype it was cloned from).
    pub fn apply_interned(&mut self, deltas: &[RelDelta]) -> Result<InternedOutcome> {
        self.metrics.batches.incr();
        let mut stats = BatchStats::default();
        // Retractions that empty a tuple's external support while derived
        // support keeps it visible leave no visibility mark, but z-set
        // strata must still verify them: that support may rest on a
        // derivation cycle through the tuple itself.
        let mut edb_losses: BTreeMap<RelId, BTreeSet<SharedTuple>> = BTreeMap::new();
        for d in deltas {
            let had_edb = self.storage.edb_count_id(d.rel, &d.tuple) > 0;
            let change = self.storage.add_edb_id(d.rel, &d.tuple, d.delta);
            if d.delta < 0
                && had_edb
                && change == VisibilityChange::Unchanged
                && self.storage.edb_count_id(d.rel, &d.tuple) == 0
                && self.storage.contains_id(d.rel, &d.tuple)
            {
                edb_losses.entry(d.rel).or_default().insert(d.tuple.clone());
            }
        }
        let router = self.sharding.as_deref();
        for s in 0..self.plans.len() {
            let plan = &self.plans[s];
            recompute_aggs(
                &mut self.storage,
                plan,
                router,
                &mut self.agg_prev,
                &mut stats,
                &self.metrics,
            )?;
            if plan.recursive {
                // Native dispatch: a recognized component runs its graph
                // operator instead of semi-naive maintenance.  The operator
                // installs the exact support counts z-set maintenance would
                // store, so a hand-back (`false`) on a later batch resumes
                // delta maintenance seamlessly.  Distributed stores are
                // left to the general engine: localized rules split strata
                // across nodes and export-side routing breaks the
                // whole-graph view the operators assume.
                let mut handled = false;
                if self.native_ops && !self.storage.is_distributed() {
                    if let Some(shape) = plan.native.as_ref() {
                        handled = maintain_native(
                            &mut self.storage,
                            shape,
                            &edb_losses,
                            &mut stats,
                            &self.metrics,
                        )?;
                        if !handled {
                            self.metrics.algo_fallbacks.incr();
                        }
                    } else {
                        self.metrics.algo_fallbacks.incr();
                    }
                }
                if handled {
                    if self.storage.total() + self.storage.exported_total() > self.opts.max_tuples {
                        return Err(NdlogError::Eval {
                            msg: "tuple limit exceeded".into(),
                        });
                    }
                    continue;
                }
                maintain_zset(
                    &mut self.storage,
                    plan,
                    &self.opts,
                    router,
                    &edb_losses,
                    &mut stats,
                    &self.metrics,
                )?;
            } else {
                maintain_counting(
                    &mut self.storage,
                    plan,
                    &self.opts,
                    router,
                    &mut stats,
                    &self.metrics,
                )?;
            }
            if self.storage.total() + self.storage.exported_total() > self.opts.max_tuples {
                return Err(NdlogError::Eval {
                    msg: "tuple limit exceeded".into(),
                });
            }
        }
        let mut changes: Vec<RelDelta> = self
            .storage
            .take_changes()
            .into_iter()
            .map(|(rel, tuple, delta)| RelDelta { rel, tuple, delta })
            .collect();
        changes.sort();
        stats.inserted = changes.iter().filter(|c| c.delta > 0).count();
        stats.deleted = changes.iter().filter(|c| c.delta < 0).count();
        self.metrics.derivations.add(stats.derivations as u64);
        self.metrics.rounds.add(stats.rounds as u64);
        self.metrics.inserted.add(stats.inserted as u64);
        self.metrics.deleted.add(stats.deleted as u64);
        Ok(InternedOutcome { changes, stats })
    }
}

/// Register hash indexes for the static join-key binding pattern of each
/// positive body atom: the argument positions that are constants or bound by
/// earlier literals in the safe order (optionally pre-binding the head
/// variables, the pattern `CompiledRule::unify_head` probes start from).
fn register_rule_indexes(storage: &mut RelationStorage, rule: &Rule, bound0: &BTreeSet<String>) {
    register_pattern(storage, rule, bound0.clone(), None);
    // Delta-first evaluation hoists each positive literal to the front, so
    // the remaining literals probe with that literal's variables pre-bound.
    for (d, lit) in rule.body.iter().enumerate() {
        if let Literal::Pos(a) = lit {
            let mut bound = bound0.clone();
            a.vars(&mut bound);
            register_pattern(storage, rule, bound, Some(d));
        }
    }
}

/// Walk the body in order (skipping `skip`), registering the index pattern
/// each positive literal is probed with given the running bound-variable set.
fn register_pattern(
    storage: &mut RelationStorage,
    rule: &Rule,
    mut bound: BTreeSet<String>,
    skip: Option<usize>,
) {
    for (i, lit) in rule.body.iter().enumerate() {
        if Some(i) == skip {
            continue;
        }
        match lit {
            Literal::Pos(a) => {
                let cols: Vec<usize> = a
                    .args
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| match t {
                        Term::Const(_) => Some(i),
                        Term::Var(v) => bound.contains(v).then_some(i),
                    })
                    .collect();
                let rel = storage.rel_id(&a.pred);
                storage.register_index_id(rel, &cols);
                a.vars(&mut bound);
            }
            Literal::Assign(v, _) => {
                bound.insert(v.clone());
            }
            _ => {}
        }
    }
}

/// Build the maintenance sub-plans: each stratum is decomposed into the
/// SCCs of its positive head-dependency graph, emitted in topological
/// order.  Negative same-stratum edges cannot exist (stratified negation
/// forces negated predicates strictly lower), so the condensation order is
/// well-defined over the positive edges alone.  Aggregates attach to the
/// stratum's first sub-plan: their bodies live strictly below the stratum,
/// and plain rules consuming aggregate heads run in later components, so
/// the existing aggregates-first sequencing is preserved.
fn build_plans(analysis: &Analysis) -> Vec<StratumPlan> {
    let mut plans = Vec::new();
    for s in 0..analysis.num_strata {
        let mut aggs = Vec::new();
        let mut plain = Vec::new();
        for (i, r) in analysis.rules.iter().enumerate() {
            if analysis.stratum_of.get(&r.head.pred).copied().unwrap_or(0) != s {
                continue;
            }
            let compiled = CompiledRule::compile(r.clone(), &analysis.symbols);
            if r.head.has_agg() {
                aggs.push((i, compiled));
            } else {
                plain.push(compiled);
            }
        }
        let head_preds: BTreeSet<RelId> = plain.iter().map(|r| r.head).collect();
        for scc in scc_condensation(&plain, &head_preds) {
            let sub: Vec<CompiledRule> = plain
                .iter()
                .filter(|r| scc.contains(&r.head))
                .cloned()
                .collect();
            let recursive = sub.iter().any(|r| {
                r.delta_positions()
                    .any(|(_, rel, neg)| !neg && scc.contains(&rel))
            });
            // Attach a native plan only when this component is *exactly*
            // the recognized rule pair: same single head, same two rule
            // names.  That re-check makes the recognizer's per-head view
            // sound — any extra rule in the cycle (mutual recursion pulls
            // the edge relation's rules into the same SCC) breaks the
            // match and the component stays on semi-naive.
            let native = analysis
                .native
                .iter()
                .find(|shape| {
                    recursive && sub.len() == 2 && sub.iter().all(|r| r.head == shape.head()) && {
                        let (a, b) = shape.rule_names();
                        let names: BTreeSet<&str> =
                            sub.iter().map(|r| r.rule.name.as_str()).collect();
                        names == BTreeSet::from([a, b])
                    }
                })
                .cloned();
            plans.push(make_plan(std::mem::take(&mut aggs), sub, recursive, native));
        }
        if !aggs.is_empty() {
            // Aggregate-only stratum: still needs a plan so the rules run.
            plans.push(make_plan(aggs, Vec::new(), false, None));
        }
    }
    plans
}

fn make_plan(
    aggs: Vec<(usize, CompiledRule)>,
    plain: Vec<CompiledRule>,
    recursive: bool,
    native: Option<crate::algo::NativeShape>,
) -> StratumPlan {
    let body_preds = plain
        .iter()
        .flat_map(|r| r.delta_positions().map(|(_, rel, _)| rel))
        .collect();
    StratumPlan {
        aggs,
        plain,
        body_preds,
        recursive,
        native,
    }
}

/// The SCCs of a stratum's positive head-dependency graph, in topological
/// (dependencies-first) order of the condensation; ties broken by smallest
/// member id so the decomposition is deterministic.
fn scc_condensation(plain: &[CompiledRule], head_preds: &BTreeSet<RelId>) -> Vec<BTreeSet<RelId>> {
    // body-pred -> head-pred edges ("head depends on body").
    let mut edges: BTreeMap<RelId, BTreeSet<RelId>> = BTreeMap::new();
    for r in plain {
        for (_, rel, negated) in r.delta_positions() {
            if !negated && head_preds.contains(&rel) {
                edges.entry(rel).or_default().insert(r.head);
            }
        }
    }
    let reach_from = |start: RelId| -> BTreeSet<RelId> {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<RelId> = edges.get(&start).into_iter().flatten().copied().collect();
        while let Some(v) = stack.pop() {
            if seen.insert(v) {
                stack.extend(edges.get(&v).into_iter().flatten().copied());
            }
        }
        seen
    };
    let reachable: BTreeMap<RelId, BTreeSet<RelId>> =
        head_preds.iter().map(|&p| (p, reach_from(p))).collect();
    // Mutually-reachable predicates share a component, keyed by min member.
    let mut rep_of: BTreeMap<RelId, RelId> = BTreeMap::new();
    let mut members: BTreeMap<RelId, BTreeSet<RelId>> = BTreeMap::new();
    for &p in head_preds {
        let rep = head_preds
            .iter()
            .copied()
            .filter(|&q| q == p || (reachable[&p].contains(&q) && reachable[&q].contains(&p)))
            .min()
            .expect("component contains at least p");
        rep_of.insert(p, rep);
        members.entry(rep).or_default().insert(p);
    }
    // Kahn's algorithm over the condensation, smallest-rep-first.
    let mut cedges: BTreeMap<RelId, BTreeSet<RelId>> = BTreeMap::new();
    let mut indeg: BTreeMap<RelId, usize> = members.keys().map(|&r| (r, 0)).collect();
    for (&b, hs) in &edges {
        for &h in hs {
            let (cb, ch) = (rep_of[&b], rep_of[&h]);
            if cb != ch && cedges.entry(cb).or_default().insert(ch) {
                *indeg.get_mut(&ch).expect("component registered") += 1;
            }
        }
    }
    let mut ready: BTreeSet<RelId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&r, _)| r)
        .collect();
    let mut order = Vec::with_capacity(members.len());
    while let Some(&rep) = ready.iter().next() {
        ready.remove(&rep);
        order.push(members.remove(&rep).expect("each component emitted once"));
        for &next in cedges.get(&rep).into_iter().flatten() {
            let d = indeg.get_mut(&next).expect("component registered");
            *d -= 1;
            if *d == 0 {
                ready.insert(next);
            }
        }
    }
    debug_assert!(members.is_empty(), "condensation of a DAG is acyclic");
    order
}

// ---------------------------------------------------------------------
// Signed delta-rule evaluation over the indexed store.
// ---------------------------------------------------------------------

/// Shared evaluation context for one delta-rule pass.
pub(crate) struct DeltaCtx<'a> {
    pub(crate) storage: &'a RelationStorage,
    pub(crate) body: &'a [Literal],
    /// The interned id of each body atom (aligned with `body`).
    pub(crate) body_rels: &'a [Option<RelId>],
    /// Evaluation order over body positions.  When the delta literal is a
    /// positive atom it is evaluated *first* — binding its variables so the
    /// remaining literals become index probes instead of leading scans.
    pub(crate) seq: &'a [usize],
    pub(crate) delta_at: Option<usize>,
    pub(crate) delta: Option<&'a BTreeMap<SharedTuple, i64>>,
    /// Multiplier applied to every delta entry's sign (`-1` when the delta
    /// literal is negated: the negation sees changes inverted).  Borrowing
    /// plus a multiplier avoids cloning the delta map per rule × position.
    pub(crate) delta_sign: i64,
    /// Subtracted from the store at the positions `minus_for` selects.
    pub(crate) adjust: Option<&'a SignedDeltas>,
}

impl DeltaCtx<'_> {
    /// Which view does the literal at original position `pos` read?  The
    /// telescoped delta formula assigns `new` before the delta position and
    /// `old` (`adjust` subtracted) after it — in the *original* position
    /// numbering, independent of evaluation order.  Without a delta
    /// position every literal reads the adjusted view.
    fn minus_for(&self, pos: usize) -> Option<&SignedDeltas> {
        let use_old = match self.delta_at {
            None => true,
            Some(d) => pos > d,
        };
        if use_old {
            self.adjust
        } else {
            None
        }
    }
}

/// The evaluation order for a body with the delta literal at `d`: a positive
/// delta literal is hoisted to the front (its tuples drive the join), a
/// negated one stays in place (it only filters ground probes).
fn delta_seq(body: &[Literal], d: usize) -> Vec<usize> {
    if matches!(body[d], Literal::Pos(_)) {
        std::iter::once(d)
            .chain((0..body.len()).filter(|&i| i != d))
            .collect()
    } else {
        (0..body.len()).collect()
    }
}

/// Evaluate a rule body over `ctx.storage`, with the atom at `ctx.delta_at`
/// restricted to the signed `ctx.delta` map.  `sink` receives each complete
/// environment with the firing's sign and returns `false` to stop early.
pub(crate) fn eval_body_delta(
    ctx: &DeltaCtx<'_>,
    k: usize,
    env: &Env,
    sign: i64,
    sink: &mut dyn FnMut(&Env, i64) -> Result<bool>,
) -> Result<bool> {
    if k == ctx.seq.len() {
        return sink(env, sign);
    }
    let pos = ctx.seq[k];
    let minus = ctx.minus_for(pos);
    match &ctx.body[pos] {
        Literal::Pos(atom) => {
            let rel = ctx.body_rels[pos].expect("positive atom has id");
            if ctx.delta_at == Some(pos) {
                for (tuple, s) in ctx.delta.expect("delta map at delta position") {
                    let mut env2 = env.clone();
                    if match_atom(atom, tuple, &mut env2)
                        && !eval_body_delta(ctx, k + 1, &env2, sign * s * ctx.delta_sign, sink)?
                    {
                        return Ok(false);
                    }
                }
                return Ok(true);
            }
            // Index probe on the bound argument positions.
            let mut cols = Vec::new();
            let mut key = Vec::new();
            for (i, t) in atom.args.iter().enumerate() {
                match t {
                    Term::Const(c) => {
                        cols.push(i);
                        key.push(c.clone());
                    }
                    Term::Var(v) => {
                        if let Some(val) = env.get(v) {
                            cols.push(i);
                            key.push(val.clone());
                        }
                    }
                }
            }
            for tuple in ctx.storage.matches_adjusted_id(rel, &cols, &key, minus) {
                let mut env2 = env.clone();
                if match_atom(atom, tuple, &mut env2)
                    && !eval_body_delta(ctx, k + 1, &env2, sign, sink)?
                {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Literal::Neg(atom) => {
            let rel = ctx.body_rels[pos].expect("negated atom has id");
            let mut probe = Vec::with_capacity(atom.args.len());
            for t in &atom.args {
                match t {
                    Term::Const(c) => probe.push(c.clone()),
                    Term::Var(v) => {
                        probe.push(env.get(v).cloned().ok_or_else(|| NdlogError::Eval {
                            msg: format!("unbound var {v} in negation"),
                        })?)
                    }
                }
            }
            if ctx.delta_at == Some(pos) {
                match ctx
                    .delta
                    .expect("delta map at delta position")
                    .get(&probe[..])
                {
                    Some(s) => eval_body_delta(ctx, k + 1, env, sign * s * ctx.delta_sign, sink),
                    None => Ok(true),
                }
            } else if !ctx.storage.contains_adjusted_id(rel, &probe, minus) {
                eval_body_delta(ctx, k + 1, env, sign, sink)
            } else {
                Ok(true)
            }
        }
        Literal::Assign(v, e) => {
            let val = eval_expr(e, env)?;
            match env.get(v) {
                Some(bound) if *bound != val => Ok(true),
                Some(_) => eval_body_delta(ctx, k + 1, env, sign, sink),
                None => {
                    let mut env2 = env.clone();
                    env2.insert(v.clone(), val);
                    eval_body_delta(ctx, k + 1, &env2, sign, sink)
                }
            }
        }
        Literal::Cmp(a, op, b) => {
            let va = eval_expr(a, env)?;
            let vb = eval_expr(b, env)?;
            if op.eval(&va, &vb) {
                eval_body_delta(ctx, k + 1, env, sign, sink)
            } else {
                Ok(true)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Aggregate rules: group-incremental recompute over maintained inputs.
// ---------------------------------------------------------------------

/// Maintain the aggregate rules of a stratum.  The affected group keys are
/// extracted from the batch's changed body tuples, and only those groups are
/// re-aggregated; when a changed atom does not bind every group variable
/// (or on the first evaluation) the rule falls back to a full
/// recompute-and-diff.
fn recompute_aggs(
    storage: &mut RelationStorage,
    plan: &StratumPlan,
    router: Option<&ShardRouter>,
    agg_prev: &mut BTreeMap<usize, BTreeMap<Tuple, Tuple>>,
    stats: &mut BatchStats,
    metrics: &EngineMetrics,
) -> Result<()> {
    if plan.aggs.is_empty() {
        return Ok(());
    }
    let _span = metrics.phase_aggregates.start_timer();
    for (ri, rule) in &plan.aggs {
        let affected = affected_group_keys(storage, rule, agg_prev.get(ri).is_some());
        match affected {
            Some(keys) if keys.is_empty() => {}
            Some(keys) => {
                // Group keys are independent (an aggregate's body lives
                // strictly below its stratum), so workers re-aggregate
                // their shard of the keys against the frozen store and the
                // diffs apply at the barrier in key order.
                let shards = router.map_or(1, ShardRouter::shards);
                let key_list: Vec<Tuple> = keys.into_iter().collect();
                let chunks = chunk_by(&key_list, shards, |key| {
                    router.map_or(0, |r| r.shard_of_key(key))
                });
                let frozen: &RelationStorage = storage;
                let partials = fan_out(router.map(ShardRouter::pool), shards, &|k| {
                    let mut outs: Vec<(Tuple, Option<Tuple>)> = Vec::new();
                    let mut local = BatchStats::default();
                    for key in &chunks[k] {
                        let outputs = eval_agg_groups(frozen, rule, Some(key), &mut local)?;
                        outs.push((key.clone(), outputs.get(key).cloned()));
                    }
                    Ok((outs, local.derivations))
                })?;
                let mut new_outs: BTreeMap<Tuple, Option<Tuple>> = BTreeMap::new();
                for (k, (outs, derivations)) in partials.into_iter().enumerate() {
                    stats.derivations += derivations;
                    metrics.shard_load(k, outs.len(), derivations);
                    new_outs.extend(outs);
                }
                let prev = agg_prev.entry(*ri).or_default();
                for (key, new_out) in new_outs {
                    let old_out = match &new_out {
                        Some(t) => prev.insert(key.clone(), t.clone()),
                        None => prev.remove(&key),
                    };
                    if new_out != old_out {
                        if let Some(t) = &old_out {
                            storage.add_derived_id(rule.head, t, -1);
                        }
                        if let Some(t) = &new_out {
                            storage.add_derived_id(rule.head, t, 1);
                        }
                    }
                }
            }
            None => {
                let outputs = eval_agg_groups(storage, rule, None, stats)?;
                let prev = agg_prev.insert(*ri, outputs.clone()).unwrap_or_default();
                for (key, t) in &outputs {
                    if prev.get(key) != Some(t) {
                        storage.add_derived_id(rule.head, t, 1);
                    }
                }
                for (key, t) in &prev {
                    if outputs.get(key) != Some(t) {
                        storage.add_derived_id(rule.head, t, -1);
                    }
                }
            }
        }
    }
    Ok(())
}

/// The group keys whose aggregate may have changed this batch, extracted by
/// matching each changed body tuple against its atom.  `None` requests a
/// full recompute (first run, or a changed atom does not determine the key).
fn affected_group_keys(
    storage: &RelationStorage,
    rule: &CompiledRule,
    have_prev: bool,
) -> Option<BTreeSet<Tuple>> {
    if !have_prev {
        return None;
    }
    let head = &rule.rule.head;
    let group_vars: BTreeSet<&str> = head
        .args
        .iter()
        .filter_map(|a| match a {
            HeadArg::Term(Term::Var(v)) => Some(v.as_str()),
            _ => None,
        })
        .collect();
    let mut keys = BTreeSet::new();
    for (pos, rel, _) in rule.delta_positions() {
        let (app, dis) = storage.batch_marks_id(rel);
        if app.is_empty() && dis.is_empty() {
            continue;
        }
        let atom = match &rule.rule.body[pos] {
            Literal::Pos(a) | Literal::Neg(a) => a,
            _ => unreachable!("delta positions are atoms"),
        };
        // Every changed atom occurrence must bind the full key.
        let mut atom_vars = BTreeSet::new();
        atom.vars(&mut atom_vars);
        if !group_vars.iter().all(|v| atom_vars.contains(*v)) {
            return None;
        }
        for t in app.iter().chain(dis.iter()) {
            let mut env = Env::new();
            if !match_atom(atom, t, &mut env) {
                continue;
            }
            let mut key = Vec::new();
            for a in &head.args {
                match a {
                    HeadArg::Term(Term::Const(c)) => key.push(c.clone()),
                    HeadArg::Term(Term::Var(v)) => match env.get(v) {
                        Some(val) => key.push(val.clone()),
                        None => return None,
                    },
                    HeadArg::Agg(..) => {}
                }
            }
            keys.insert(key);
        }
    }
    Some(keys)
}

/// Evaluate an aggregate rule over the current store, optionally restricted
/// to one group key, returning `group key → output tuple`.
fn eval_agg_groups(
    storage: &RelationStorage,
    rule: &CompiledRule,
    restrict: Option<&Tuple>,
    stats: &mut BatchStats,
) -> Result<BTreeMap<Tuple, Tuple>> {
    let head = &rule.rule.head;
    let n_aggs = head
        .args
        .iter()
        .filter(|a| matches!(a, HeadArg::Agg(..)))
        .count();

    // Pre-bind the group variables when restricted to one key.
    let mut env0 = Env::new();
    if let Some(key) = restrict {
        let mut ki = 0usize;
        for a in &head.args {
            match a {
                HeadArg::Term(Term::Const(c)) => {
                    if key.get(ki) != Some(c) {
                        return Ok(BTreeMap::new());
                    }
                    ki += 1;
                }
                HeadArg::Term(Term::Var(v)) => {
                    let val = key.get(ki).cloned().ok_or_else(|| NdlogError::Eval {
                        msg: "group key arity mismatch".into(),
                    })?;
                    match env0.get(v) {
                        Some(b) if *b != val => return Ok(BTreeMap::new()),
                        Some(_) => {}
                        None => {
                            env0.insert(v.clone(), val);
                        }
                    }
                    ki += 1;
                }
                HeadArg::Agg(..) => {}
            }
        }
    }

    let mut groups: BTreeMap<Tuple, Vec<Vec<Value>>> = BTreeMap::new();
    let mut sink = |env: &Env, _sign: i64| -> Result<bool> {
        stats.derivations += 1;
        let mut key = Vec::new();
        let mut aggs = Vec::with_capacity(n_aggs);
        for a in &head.args {
            match a {
                HeadArg::Term(Term::Const(c)) => key.push(c.clone()),
                HeadArg::Term(Term::Var(v)) => {
                    key.push(env.get(v).cloned().ok_or_else(|| NdlogError::Eval {
                        msg: format!("unbound head var {v}"),
                    })?)
                }
                HeadArg::Agg(_, v) => {
                    aggs.push(env.get(v).cloned().ok_or_else(|| NdlogError::Eval {
                        msg: format!("unbound aggregate var {v}"),
                    })?)
                }
            }
        }
        let acc = groups
            .entry(key)
            .or_insert_with(|| vec![Vec::new(); n_aggs]);
        for (slot, v) in acc.iter_mut().zip(aggs) {
            slot.push(v);
        }
        Ok(true)
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
    eval_body_delta(&ctx, 0, &env0, 1, &mut sink)?;

    let mut out = BTreeMap::new();
    for (key, accs) in groups {
        let mut ki = 0usize;
        let mut ai = 0usize;
        let mut tuple = Vec::with_capacity(head.args.len());
        for a in &head.args {
            match a {
                HeadArg::Term(_) => {
                    tuple.push(key[ki].clone());
                    ki += 1;
                }
                HeadArg::Agg(func, _) => {
                    tuple.push(aggregate(*func, &accs[ai])?);
                    ai += 1;
                }
            }
        }
        stats.derivations += 1;
        out.insert(key, tuple);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Counting maintenance (non-recursive strata).
// ---------------------------------------------------------------------

/// Partition a signed delta map for the round's workers: one borrowed view
/// when single-threaded, router-partitioned owned maps otherwise.  The
/// storage backing `owned` must outlive the returned references.
fn partition_round<'a>(
    deltas: &'a SignedDeltas,
    router: Option<&ShardRouter>,
    owned: &'a mut Vec<SignedDeltas>,
) -> Vec<&'a SignedDeltas> {
    match router {
        Some(r) if r.shards() > 1 => {
            *owned = r.partition(deltas);
            owned.iter().collect()
        }
        _ => vec![deltas],
    }
}

/// Run a recognized component's native graph operator for this batch.
///
/// Returns `Ok(true)` when the operator fully maintained the component
/// (including deciding the batch cannot affect it), `Ok(false)` to hand
/// the batch back to the general delta engine (which then runs z-set
/// maintenance over the exact counts installed by earlier native runs).
fn maintain_native(
    storage: &mut RelationStorage,
    shape: &NativeShape,
    edb_losses: &BTreeMap<RelId, BTreeSet<SharedTuple>>,
    stats: &mut BatchStats,
    metrics: &EngineMetrics,
) -> Result<bool> {
    let _span = metrics.phase_algo.start_timer();
    match shape {
        NativeShape::LinearTc(spec) => {
            let op = BfsReachability::new(spec.clone());
            let empty = BTreeSet::new();
            let losses = edb_losses.get(&spec.head).unwrap_or(&empty);
            // Churn policy for closures: re-run scoped to the affected
            // component — the reverse step-closure of every changed
            // tuple's source row.  `None` = the batch cannot change the
            // stratum; skip the invocation entirely.
            let Some(scope) = op.churn_scope(storage, losses) else {
                return Ok(true);
            };
            let computed = op.run_scoped(storage, Some(&scope));
            metrics.algo_invocations.incr();
            metrics.algo_output.add(computed.len() as u64);
            stats.rounds += 1;
            stats.derivations += computed.len();
            let spec = spec.clone();
            install_native(storage, spec.head, computed, |t| {
                scope.contains(spec.head_src(t))
            });
            Ok(true)
        }
        NativeShape::PathVector(spec) => {
            // Churn policy for the path-vector shape: native owns the
            // initial materialization only.  Once the relation is
            // populated (or externally seeded — arbitrary asserted path
            // tuples join the recursion under builtin semantics the
            // enumerator does not model), the delta engine takes over
            // from the exact counts installed here.
            if storage.len_of_id(spec.head) > 0 {
                return Ok(false);
            }
            let (ea, ed) = storage.batch_marks_id(spec.edge);
            let (ha, hd) = storage.batch_marks_id(spec.head);
            if ea.is_empty() && ed.is_empty() && ha.is_empty() && hd.is_empty() {
                // Empty head and no relevant changes: fixpoint is intact.
                return Ok(true);
            }
            let op = DijkstraPaths::new(spec.clone());
            // Non-integer link costs: the general engine owns the exact
            // semantics, including the arithmetic type error r2 raises.
            let Some(computed) = op.try_run(storage) else {
                return Ok(false);
            };
            metrics.algo_invocations.incr();
            metrics.algo_output.add(computed.len() as u64);
            stats.rounds += 1;
            stats.derivations += computed.len();
            install_native(storage, spec.head, computed, |_| true);
            Ok(true)
        }
    }
}

/// Diff a native operator's computed `(tuple, firing count)` output against
/// the store and install the difference as signed derived counts, exactly
/// as rule-derived support would land.  Only tuples passing `in_scope` are
/// reconciled; rows outside the scope were proven unaffected and keep
/// their support untouched.  Visibility marks
/// are recorded (and cancelled) by the storage layer as usual, so
/// downstream strata and `take_changes` see native results as ordinary
/// derived deltas.
fn install_native<F: Fn(&[Value]) -> bool>(
    storage: &mut RelationStorage,
    head: RelId,
    computed: Vec<(SharedTuple, i64)>,
    in_scope: F,
) {
    let computed: BTreeMap<SharedTuple, i64> = computed.into_iter().collect();
    // Stored tuples in scope that the recomputation no longer derives.
    let stale: Vec<(SharedTuple, i64)> = storage
        .visible_id(head)
        .filter(|t| in_scope(t) && !computed.contains_key(*t))
        .map(|t| (t.clone(), storage.derived_count_id(head, t)))
        .filter(|(_, d)| *d != 0)
        .collect();
    for (t, k) in &computed {
        let delta = k - storage.derived_count_id(head, t);
        if delta != 0 {
            storage.add_derived_id(head, t, delta);
        }
    }
    for (t, d) in stale {
        storage.add_derived_id(head, &t, -d);
    }
}

fn maintain_counting(
    storage: &mut RelationStorage,
    plan: &StratumPlan,
    opts: &EvalOptions,
    router: Option<&ShardRouter>,
    stats: &mut BatchStats,
    metrics: &EngineMetrics,
) -> Result<()> {
    let _span = metrics.phase_counting.start_timer();
    // Round 0: the batch's net visibility changes of every body predicate
    // (lower strata are final; head predicates may have external changes).
    let mut vis_delta: SignedDeltas = storage.batch_deltas_for(plan.body_preds.iter().copied());
    let mut round = 0usize;
    while !vis_delta.is_empty() {
        round += 1;
        stats.rounds += 1;
        if round > opts.max_iterations {
            return Err(NdlogError::Eval {
                msg: "iteration limit exceeded in counting maintenance".into(),
            });
        }
        // Evaluate every delta rule over the frozen store, each worker
        // driven by its shard of the deltas; merge the signed head counts
        // at the barrier (summation is order-insensitive).
        let mut owned = Vec::new();
        let parts = partition_round(&vis_delta, router, &mut owned);
        let frozen: &RelationStorage = storage;
        let vis_ref = &vis_delta;
        let partials = fan_out(router.map(ShardRouter::pool), parts.len(), &|k| {
            let mut head_net: BTreeMap<(RelId, Tuple), i64> = BTreeMap::new();
            let mut derivations = 0usize;
            for rule in &plan.plain {
                for (pos, rel, negated) in rule.delta_positions() {
                    let Some(dm) = parts[k].get(&rel) else {
                        continue;
                    };
                    let head_rel = rule.head;
                    let head = &rule.rule.head;
                    let mut sink = |env: &Env, sign: i64| -> Result<bool> {
                        derivations += 1;
                        let t = instantiate_head(head, env)?;
                        *head_net.entry((head_rel, t)).or_insert(0) += sign;
                        Ok(true)
                    };
                    let seq = delta_seq(&rule.rule.body, pos);
                    let ctx = DeltaCtx {
                        storage: frozen,
                        body: &rule.rule.body,
                        body_rels: &rule.body_rels,
                        seq: &seq,
                        delta_at: Some(pos),
                        delta: Some(dm),
                        delta_sign: if negated { -1 } else { 1 },
                        adjust: Some(vis_ref),
                    };
                    eval_body_delta(&ctx, 0, &Env::new(), 1, &mut sink)?;
                }
            }
            Ok((head_net, derivations))
        })?;
        let mut head_net: BTreeMap<(RelId, Tuple), i64> = BTreeMap::new();
        for (k, (partial, derivations)) in partials.into_iter().enumerate() {
            stats.derivations += derivations;
            metrics.shard_load(k, partial.len(), derivations);
            for (key, v) in partial {
                *head_net.entry(key).or_insert(0) += v;
            }
        }
        // Apply the net support changes; visibility flips seed the next round.
        let mut next = SignedDeltas::new();
        for ((p, t), k) in head_net {
            if k == 0 {
                continue;
            }
            let change = storage.add_derived_id(p, &t, k);
            if storage.derived_count_id(p, &t) < 0 {
                // Cold error path: rendering the name here costs nothing in
                // the hot loop and is the only locating information the
                // caller gets.
                return Err(NdlogError::Eval {
                    msg: format!(
                        "negative support for {} tuple (counting invariant broken)",
                        storage.symbols().name(p)
                    ),
                });
            }
            // Export-side tuples never join locally: report, don't propagate.
            if storage.is_exported_id(p, &t) {
                continue;
            }
            match change {
                VisibilityChange::Appeared => {
                    next.entry(p).or_default().insert(SharedTuple::from(t), 1);
                }
                VisibilityChange::Disappeared => {
                    next.entry(p).or_default().insert(SharedTuple::from(t), -1);
                }
                VisibilityChange::Unchanged => {}
            }
        }
        vis_delta = next;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Z-set maintenance (recursive strata).
// ---------------------------------------------------------------------
//
// Phase P propagates the batch's visibility deltas as **signed counts** —
// the exact telescoped delta rules the counting path runs, negative
// multiplicities included — so every tuple's support count stays the exact
// number of rule firings over the visible database.  On its own that is
// unsound for recursion in one specific way: a tuple kept alive only by a
// derivation cycle through itself produces *no* visibility delta when its
// last well-founded support disappears (the circular firings still count).
// Phase V closes the gap: every still-visible head tuple that lost at least
// one firing (or lost its last external assertion) is a *suspect*, and a
// backward search checks it still has a derivation grounded outside the
// cycle.  Suspects that fail are force-killed and their loss re-propagates
// as fresh negative deltas, which may produce new suspects; the loop ends
// on the first death-free pass.
//
// Cost model (EXP-14): Phase P is proportional to the firings actually
// gained/lost, Phase V to the support of the tuples that lost a firing —
// never to the size of the deletion's downward closure.

/// Difference-based maintenance of one recursive component.
fn maintain_zset(
    storage: &mut RelationStorage,
    plan: &StratumPlan,
    opts: &EvalOptions,
    router: Option<&ShardRouter>,
    edb_losses: &BTreeMap<RelId, BTreeSet<SharedTuple>>,
    stats: &mut BatchStats,
    metrics: &EngineMetrics,
) -> Result<()> {
    let head_preds: BTreeSet<RelId> = plan.plain.iter().map(|r| r.head).collect();

    // Sticky suspect set: tuples whose remaining support may be circular.
    // Seeded from external-assertion losses that left derived support
    // standing (no visibility delta, so Phase P alone would never revisit
    // them); Phase P adds every still-visible head that lost a firing.
    let mut suspects: BTreeMap<RelId, BTreeSet<SharedTuple>> = BTreeMap::new();
    for (&p, ts) in edb_losses {
        if !head_preds.contains(&p) {
            continue;
        }
        for t in ts {
            if storage.edb_count_id(p, t) == 0 && storage.derived_count_id(p, t) > 0 {
                suspects.entry(p).or_default().insert(t.clone());
            }
        }
    }
    let mut dead: BTreeMap<RelId, BTreeSet<SharedTuple>> = BTreeMap::new();

    // --- Phase P: propagate the batch's visibility deltas. ---------------
    let vis0: SignedDeltas = storage.batch_deltas_for(plan.body_preds.iter().copied());
    zset_propagate(
        storage,
        plan,
        opts,
        router,
        vis0,
        &dead,
        &mut suspects,
        stats,
        metrics,
    )?;

    // --- Phase V: verify well-founded support, kill, re-propagate. -------
    // `work` is the z-set retraction cost: suspects examined + verification
    // derivations + death-round propagation derivations.
    let mut work = 0usize;
    if !suspects.is_empty() {
        let vspan = metrics.phase_zset_verify.start_timer();
        let mut passes = 0usize;
        loop {
            passes += 1;
            if passes > opts.max_iterations {
                return Err(NdlogError::Eval {
                    msg: "iteration limit exceeded in z-set verification".into(),
                });
            }
            // The dead set is frozen for the pass (`blocked` borrows it):
            // proofs found this pass may lean on tuples that die later in
            // the same pass, but any pass with deaths triggers a full
            // re-pass with a fresh memo, and the terminating pass is
            // death-free — so every surviving proof holds against the
            // final dead set.
            let blocked: SignedDeltas = dead
                .iter()
                .map(|(&p, ts)| (p, ts.iter().map(|t| (t.clone(), 1)).collect()))
                .collect();
            let mut state = VerifyState::default();
            let mut newly_dead: Vec<(RelId, SharedTuple)> = Vec::new();
            {
                let vctx = VerifyCtx {
                    storage,
                    plan,
                    head_preds: &head_preds,
                    blocked: &blocked,
                };
                for (&p, ts) in &suspects {
                    for t in ts {
                        if dead.get(&p).is_some_and(|s| s.contains(t)) {
                            continue;
                        }
                        if !storage.contains_id(p, t) || storage.edb_count_id(p, t) > 0 {
                            continue;
                        }
                        work += 1;
                        if !wf_derivable(&vctx, &mut state, p, t)? {
                            newly_dead.push((p, t.clone()));
                        }
                    }
                }
            }
            work += state.derivations;
            stats.derivations += state.derivations;
            if newly_dead.is_empty() {
                break;
            }
            stats.rounds += 1;
            // Kill: force the counts to zero (records the visibility mark)
            // and propagate the loss as a fresh negative delta.  Decrements
            // aimed at already-dead tuples are skipped inside
            // `zset_propagate` — their counts are already zeroed.
            let mut seed: SignedDeltas = BTreeMap::new();
            for (p, t) in newly_dead {
                storage.clear_derived_id(p, &t);
                dead.entry(p).or_default().insert(t.clone());
                if !storage.is_exported_id(p, &t) {
                    seed.entry(p).or_default().insert(t, -1);
                }
            }
            work += zset_propagate(
                storage,
                plan,
                opts,
                router,
                seed,
                &dead,
                &mut suspects,
                stats,
                metrics,
            )?;
        }
        vspan.stop();
    }
    metrics.zset_work.record(work as u64);
    Ok(())
}

/// Signed-count fixpoint over one recursive component: structurally the
/// counting loop, plus (a) the caller seeds the initial delta (external
/// batch or death round), (b) updates aimed at `dead` tuples are skipped
/// (their counts were force-zeroed), and (c) every still-visible head that
/// lost a firing is recorded as a verification suspect.  Returns the
/// derivations evaluated (for the retraction-work accounting).
#[allow(clippy::too_many_arguments)]
fn zset_propagate(
    storage: &mut RelationStorage,
    plan: &StratumPlan,
    opts: &EvalOptions,
    router: Option<&ShardRouter>,
    mut vis_delta: SignedDeltas,
    dead: &BTreeMap<RelId, BTreeSet<SharedTuple>>,
    suspects: &mut BTreeMap<RelId, BTreeSet<SharedTuple>>,
    stats: &mut BatchStats,
    metrics: &EngineMetrics,
) -> Result<usize> {
    let _span = metrics.phase_zset_propagate.start_timer();
    let mut total_derivations = 0usize;
    let mut round = 0usize;
    while !vis_delta.is_empty() {
        round += 1;
        stats.rounds += 1;
        if round > opts.max_iterations {
            return Err(NdlogError::Eval {
                msg: "iteration limit exceeded in z-set propagation".into(),
            });
        }
        // Same worker shape as counting: each worker evaluates every delta
        // rule driven by its shard of the deltas against the frozen store;
        // signed head counts and the lost-a-firing sets merge at the
        // barrier (sum and union are both order-insensitive, which is what
        // keeps the result byte-identical at every shard count).
        let mut owned = Vec::new();
        let parts = partition_round(&vis_delta, router, &mut owned);
        let frozen: &RelationStorage = storage;
        let vis_ref = &vis_delta;
        let partials = fan_out(router.map(ShardRouter::pool), parts.len(), &|k| {
            let mut head_net: BTreeMap<(RelId, Tuple), i64> = BTreeMap::new();
            let mut neg_heads: BTreeSet<(RelId, Tuple)> = BTreeSet::new();
            let mut derivations = 0usize;
            for rule in &plan.plain {
                for (pos, rel, negated) in rule.delta_positions() {
                    let Some(dm) = parts[k].get(&rel) else {
                        continue;
                    };
                    let head_rel = rule.head;
                    let head = &rule.rule.head;
                    let mut sink = |env: &Env, sign: i64| -> Result<bool> {
                        derivations += 1;
                        let t = instantiate_head(head, env)?;
                        if sign < 0 {
                            // Any lost firing makes the head a suspect —
                            // net change alone would miss a lost firing
                            // cancelled by a gained one.
                            neg_heads.insert((head_rel, t.clone()));
                        }
                        *head_net.entry((head_rel, t)).or_insert(0) += sign;
                        Ok(true)
                    };
                    let seq = delta_seq(&rule.rule.body, pos);
                    let ctx = DeltaCtx {
                        storage: frozen,
                        body: &rule.rule.body,
                        body_rels: &rule.body_rels,
                        seq: &seq,
                        delta_at: Some(pos),
                        delta: Some(dm),
                        delta_sign: if negated { -1 } else { 1 },
                        adjust: Some(vis_ref),
                    };
                    eval_body_delta(&ctx, 0, &Env::new(), 1, &mut sink)?;
                }
            }
            Ok((head_net, neg_heads, derivations))
        })?;
        let mut head_net: BTreeMap<(RelId, Tuple), i64> = BTreeMap::new();
        let mut neg_heads: BTreeSet<(RelId, Tuple)> = BTreeSet::new();
        for (k, (partial, negs, derivations)) in partials.into_iter().enumerate() {
            stats.derivations += derivations;
            total_derivations += derivations;
            metrics.shard_load(k, partial.len(), derivations);
            for (key, v) in partial {
                *head_net.entry(key).or_insert(0) += v;
            }
            neg_heads.extend(negs);
        }
        let mut next = SignedDeltas::new();
        for ((p, t), k) in head_net {
            if k == 0 {
                continue;
            }
            if dead.get(&p).is_some_and(|s| s.contains(&t[..])) {
                continue;
            }
            let change = storage.add_derived_id(p, &t, k);
            if storage.derived_count_id(p, &t) < 0 {
                return Err(NdlogError::Eval {
                    msg: format!(
                        "negative support for {} tuple (z-set invariant broken)",
                        storage.symbols().name(p)
                    ),
                });
            }
            // Export-side tuples never join locally: report, don't propagate.
            if storage.is_exported_id(p, &t) {
                continue;
            }
            match change {
                VisibilityChange::Appeared => {
                    next.entry(p).or_default().insert(SharedTuple::from(t), 1);
                }
                VisibilityChange::Disappeared => {
                    next.entry(p).or_default().insert(SharedTuple::from(t), -1);
                }
                VisibilityChange::Unchanged => {}
            }
        }
        // Still-visible heads that lost a firing may now rest on circular
        // support only; exported tuples cannot (local rules never read
        // them, so no cycle runs through them and their counts are exact).
        for (p, t) in neg_heads {
            if dead.get(&p).is_some_and(|s| s.contains(&t[..])) {
                continue;
            }
            if storage.contains_id(p, &t)
                && storage.edb_count_id(p, &t) == 0
                && !storage.is_exported_id(p, &t)
            {
                suspects.entry(p).or_default().insert(SharedTuple::from(t));
            }
        }
        vis_delta = next;
    }
    Ok(total_derivations)
}

/// Shared read-only context for one well-foundedness verification pass.
struct VerifyCtx<'a> {
    storage: &'a RelationStorage,
    plan: &'a StratumPlan,
    /// Head predicates of the component — the relations whose body
    /// occurrences need recursive verification.
    head_preds: &'a BTreeSet<RelId>,
    /// The pass's frozen dead set as a `+1` adjust map: dead tuples read
    /// as absent through the adjusted storage views.
    blocked: &'a SignedDeltas,
}

/// Mutable state threaded through one verification pass.
#[derive(Default)]
struct VerifyState {
    /// Tuples proven well-founded this pass.  Sound to memoize: a proof
    /// never depends on what was in progress when it was found (blocking
    /// in-progress tuples only *removes* candidate firings).
    proved: BTreeSet<(RelId, SharedTuple)>,
    /// The recursion stack: tuples whose proof is currently being sought.
    /// A firing that cites one of these would be circular support.
    in_progress: BTreeSet<(RelId, SharedTuple)>,
    derivations: usize,
}

/// Does `tuple` have a **well-founded** derivation — one grounded outside
/// every cycle through the tuples currently under examination?
///
/// For each rule deriving `rel`, the head is unified with the ground tuple
/// and the body enumerated over the visible store minus the blocked (dead)
/// tuples.  A firing counts only if every positive same-component body
/// tuple is itself well-founded; citing a tuple on the recursion stack
/// fails that firing (circular), and a failed sub-proof fails the firing
/// without being memoized (failure is relative to the stack, success is
/// not).  The first surviving firing proves the tuple.
fn wf_derivable(
    vctx: &VerifyCtx<'_>,
    state: &mut VerifyState,
    rel: RelId,
    tuple: &SharedTuple,
) -> Result<bool> {
    let key = (rel, tuple.clone());
    if state.proved.contains(&key) {
        return Ok(true);
    }
    state.in_progress.insert(key.clone());
    let mut found = false;
    for rule in vctx.plan.plain.iter().filter(|r| r.head == rel) {
        let Some(env) = rule.unify_head(tuple) else {
            continue;
        };
        // Positive body occurrences of component heads: the atoms whose
        // ground instances need their own well-foundedness proof.
        let rec_atoms: Vec<(usize, RelId)> = rule
            .delta_positions()
            .filter(|(_, r, neg)| !neg && vctx.head_preds.contains(r))
            .map(|(pos, r, _)| (pos, r))
            .collect();
        let body = &rule.rule.body;
        let mut sink = |env: &Env, _sign: i64| -> Result<bool> {
            state.derivations += 1;
            for &(pos, brel) in &rec_atoms {
                let atom = match &body[pos] {
                    Literal::Pos(a) => a,
                    _ => unreachable!("rec_atoms are positive atoms"),
                };
                let mut bt: Tuple = Vec::with_capacity(atom.args.len());
                for term in &atom.args {
                    match term {
                        Term::Const(c) => bt.push(c.clone()),
                        Term::Var(v) => {
                            bt.push(env.get(v).cloned().ok_or_else(|| NdlogError::Eval {
                                msg: format!("unbound var {v} in verified body"),
                            })?)
                        }
                    }
                }
                let bkey = (brel, SharedTuple::from(bt));
                if state.proved.contains(&bkey) {
                    continue;
                }
                if state.in_progress.contains(&bkey) {
                    return Ok(true); // circular — reject this firing
                }
                if !wf_derivable(vctx, state, bkey.0, &bkey.1)? {
                    return Ok(true); // unfounded support — reject
                }
            }
            found = true;
            Ok(false) // a well-founded firing suffices
        };
        // No delta position: the blocked view applies to every literal.
        let seq: Vec<usize> = (0..body.len()).collect();
        let ctx = DeltaCtx {
            storage: vctx.storage,
            body,
            body_rels: &rule.body_rels,
            seq: &seq,
            delta_at: None,
            delta: None,
            delta_sign: 1,
            adjust: Some(vctx.blocked),
        };
        eval_body_delta(&ctx, 0, &env, 1, &mut sink)?;
        if found {
            break;
        }
    }
    state.in_progress.remove(&key);
    if found {
        state.proved.insert(key);
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_program;
    use crate::parser::parse_program;
    use crate::programs;

    fn addr(n: u32) -> Value {
        Value::Addr(n)
    }

    fn link_tuples(a: u32, b: u32, c: i64) -> Vec<Tuple> {
        vec![
            vec![addr(a), addr(b), Value::Int(c)],
            vec![addr(b), addr(a), Value::Int(c)],
        ]
    }

    fn link_deltas(a: u32, b: u32, c: i64, up: bool) -> Vec<TupleDelta> {
        link_tuples(a, b, c)
            .into_iter()
            .map(|t| TupleDelta {
                pred: "link".into(),
                tuple: t,
                delta: if up { 1 } else { -1 },
            })
            .collect()
    }

    /// From-scratch evaluation of the same program text with a mutated edge
    /// set (the oracle every incremental run is compared against).
    fn oracle(rules: &str, edges: &[(u32, u32, i64)]) -> Database {
        let mut prog = parse_program(rules).unwrap();
        programs::add_links(&mut prog, edges);
        eval_program(&prog).unwrap()
    }

    #[test]
    fn snapshot_restore_roundtrips_through_churn() {
        let edges = [(0, 1, 1), (1, 2, 2), (0, 2, 9)];
        let mut prog = programs::path_vector();
        programs::add_links(&mut prog, &edges);
        let mut engine = IncrementalEngine::new(&prog).unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.version(), EngineSnapshot::VERSION);
        assert!(snap.approx_bytes() > 0);
        // Churn past the snapshot, then restore: the engine must resume
        // exactly at the snapshotted fixpoint and stay maintainable.
        engine.apply(&link_deltas(0, 1, 1, false)).unwrap();
        let churned = engine.database();
        engine.restore(&snap).unwrap();
        assert_eq!(engine.database(), oracle(programs::PATH_VECTOR, &edges));
        // Post-restore maintenance agrees with an engine that never
        // snapshotted (including aggregate state, exercised by bestPath).
        engine.apply(&link_deltas(0, 1, 1, false)).unwrap();
        assert_eq!(engine.database(), churned);
        assert_eq!(
            engine.database(),
            oracle(programs::PATH_VECTOR, &[(1, 2, 2), (0, 2, 9)])
        );
    }

    #[test]
    fn snapshot_restore_rejects_mismatched_programs() {
        let mut prog = programs::path_vector();
        programs::add_links(&mut prog, &[(0, 1, 1)]);
        let engine = IncrementalEngine::new(&prog).unwrap();
        let other = IncrementalEngine::new(&programs::reachability()).unwrap();
        let err = IncrementalEngine::new(&programs::reachability())
            .unwrap()
            .restore(&engine.snapshot())
            .unwrap_err();
        assert!(err.to_string().contains("different program"), "{err}");
        // And the rejected engine is untouched.
        assert_eq!(other.database(), other.database());
    }

    #[test]
    fn initial_fixpoint_matches_from_scratch_eval() {
        let edges = [(0, 1, 1), (1, 2, 2), (0, 2, 9)];
        let mut prog = programs::path_vector();
        programs::add_links(&mut prog, &edges);
        let engine = IncrementalEngine::new(&prog).unwrap();
        assert_eq!(engine.database(), eval_program(&prog).unwrap());
        assert!(engine.init_stats().derivations > 0);
    }

    #[test]
    fn reachability_link_failure_maintains_exactly() {
        let edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)];
        let mut prog = programs::reachability();
        programs::add_links(&mut prog, &edges);
        let mut engine = IncrementalEngine::new(&prog).unwrap();

        let out = engine.apply(&link_deltas(2, 3, 1, false)).unwrap();
        assert!(out.stats.deleted > 0);
        assert_eq!(
            engine.database(),
            oracle(programs::REACHABILITY, &[(0, 1, 1), (1, 2, 1), (0, 3, 1)])
        );
        // 3 can still reach everything through 0: the well-foundedness
        // check must have kept those tuples alive.
        assert!(engine.contains("reachable", &[addr(3), addr(2)]));
    }

    #[test]
    fn reachability_link_insertion_maintains_exactly() {
        let edges = [(0, 1, 1), (2, 3, 1)];
        let mut prog = programs::reachability();
        programs::add_links(&mut prog, &edges);
        let mut engine = IncrementalEngine::new(&prog).unwrap();

        engine.apply(&link_deltas(1, 2, 1, true)).unwrap();
        assert_eq!(
            engine.database(),
            oracle(programs::REACHABILITY, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        );
        assert!(engine.contains("reachable", &[addr(0), addr(3)]));
    }

    #[test]
    fn path_vector_flap_exercises_zset_aggregates_and_counting() {
        let edges = [(0, 1, 1), (1, 2, 2), (0, 2, 9)];
        let mut prog = programs::path_vector();
        programs::add_links(&mut prog, &edges);
        let mut engine = IncrementalEngine::new(&prog).unwrap();

        // Down: best 0->2 route degrades to the direct expensive link.
        engine.apply(&link_deltas(0, 1, 1, false)).unwrap();
        assert_eq!(
            engine.database(),
            oracle(programs::PATH_VECTOR, &[(1, 2, 2), (0, 2, 9)])
        );
        assert!(engine.contains("bestPathCost", &[addr(0), addr(2), Value::Int(9)]));

        // Up again: full recovery to the original fixpoint.
        engine.apply(&link_deltas(0, 1, 1, true)).unwrap();
        assert_eq!(engine.database(), oracle(programs::PATH_VECTOR, &edges));
        assert!(engine.contains("bestPathCost", &[addr(0), addr(2), Value::Int(3)]));
    }

    #[test]
    fn counting_keeps_multiply_supported_tuples_alive() {
        // d(X) has two independent derivations; deleting one leaves it.
        let prog = parse_program(
            "a d(X) :- e1(X).
             b d(X) :- e2(X).
             e1(1). e2(1).",
        )
        .unwrap();
        let mut engine = IncrementalEngine::new(&prog).unwrap();
        let one = vec![Value::Int(1)];
        assert!(engine.contains("d", &one));

        engine
            .apply(&[TupleDelta::remove("e1", one.clone())])
            .unwrap();
        assert!(
            engine.contains("d", &one),
            "second derivation still supports d(1)"
        );

        let out = engine
            .apply(&[TupleDelta::remove("e2", one.clone())])
            .unwrap();
        assert!(!engine.contains("d", &one));
        assert!(out.changes.iter().any(|c| c.pred == "d" && c.delta == -1));
    }

    /// Regression: a tuple whose only genuine support was an external
    /// assertion must die when that assertion is retracted, even though a
    /// rule derives it *from itself* — the derived support rests on a cycle
    /// through the tuple, which only the well-foundedness check can expose.
    #[test]
    fn self_supporting_cycle_dies_with_its_external_support() {
        let prog = parse_program("r d(X) :- d(X), e(X). e(1).").unwrap();
        let mut engine = IncrementalEngine::new(&prog).unwrap();
        let one = vec![Value::Int(1)];

        engine
            .apply(&[TupleDelta::insert("d", one.clone())])
            .unwrap();
        assert!(engine.contains("d", &one));

        let out = engine
            .apply(&[TupleDelta::remove("d", one.clone())])
            .unwrap();
        assert!(
            !engine.contains("d", &one),
            "self-derivation d(1) :- d(1), e(1) must not keep d(1) alive"
        );
        assert!(out.changes.iter().any(|c| c.pred == "d" && c.delta == -1));
        // Matches from-scratch evaluation over the remaining facts.
        assert_eq!(engine.database(), eval_program(&prog).unwrap());
    }

    /// Regression: mutually supporting cycles seeded externally die together.
    #[test]
    fn mutual_support_cycle_dies_with_its_external_seed() {
        let prog = parse_program(
            "a p(X) :- q(X).
             b q(X) :- p(X).",
        )
        .unwrap();
        let mut engine = IncrementalEngine::new(&prog).unwrap();
        let one = vec![Value::Int(1)];

        engine
            .apply(&[TupleDelta::insert("p", one.clone())])
            .unwrap();
        assert!(engine.contains("p", &one) && engine.contains("q", &one));

        engine
            .apply(&[TupleDelta::remove("p", one.clone())])
            .unwrap();
        assert!(
            !engine.contains("p", &one) && !engine.contains("q", &one),
            "p(1) <-> q(1) must not sustain each other after the seed retracts"
        );
    }

    /// A tuple with both external support and a *genuine* (non-circular)
    /// derivation survives losing either one alone.
    #[test]
    fn genuine_derivation_survives_external_retraction() {
        let prog = parse_program(
            "a d(X) :- e(X).
             b r(X) :- d(X), r(X).
             e(1).",
        )
        .unwrap();
        let mut engine = IncrementalEngine::new(&prog).unwrap();
        let one = vec![Value::Int(1)];
        // Externally assert d(1) on top of its rule support, then retract.
        engine
            .apply(&[TupleDelta::insert("d", one.clone())])
            .unwrap();
        engine
            .apply(&[TupleDelta::remove("d", one.clone())])
            .unwrap();
        assert!(engine.contains("d", &one), "rule support via e(1) remains");
        // Retract the rule support instead: now it must die.
        engine
            .apply(&[TupleDelta::remove("e", one.clone())])
            .unwrap();
        assert!(!engine.contains("d", &one));
    }

    #[test]
    fn external_multiset_semantics() {
        let prog = parse_program("a d(X) :- e(X).").unwrap();
        let mut engine = IncrementalEngine::new(&prog).unwrap();
        let one = vec![Value::Int(1)];
        // Two independent assertions, one retraction: still present.
        engine
            .apply(&[TupleDelta::insert("e", one.clone())])
            .unwrap();
        engine
            .apply(&[TupleDelta::insert("e", one.clone())])
            .unwrap();
        engine
            .apply(&[TupleDelta::remove("e", one.clone())])
            .unwrap();
        assert!(engine.contains("d", &one));
        engine
            .apply(&[TupleDelta::remove("e", one.clone())])
            .unwrap();
        assert!(!engine.contains("d", &one));
    }

    #[test]
    fn stratified_negation_maintains_both_directions() {
        let src = "a reach(X,Y) :- edge(X,Y).
             b reach(X,Y) :- reach(X,Z), edge(Z,Y).
             c unreach(X,Y) :- node(X), node(Y), X != Y, !reach(X,Y).
             node(#0). node(#1). node(#2).
             edge(#0,#1).";
        let prog = parse_program(src).unwrap();
        let mut engine = IncrementalEngine::new(&prog).unwrap();
        assert!(engine.contains("unreach", &[addr(0), addr(2)]));

        // Inserting edge 1->2 makes (0,2) reachable: unreach must retract.
        engine
            .apply(&[TupleDelta::insert("edge", vec![addr(1), addr(2)])])
            .unwrap();
        assert!(engine.contains("reach", &[addr(0), addr(2)]));
        assert!(!engine.contains("unreach", &[addr(0), addr(2)]));

        // Deleting it flips both back.
        engine
            .apply(&[TupleDelta::remove("edge", vec![addr(1), addr(2)])])
            .unwrap();
        assert!(!engine.contains("reach", &[addr(0), addr(2)]));
        assert!(engine.contains("unreach", &[addr(0), addr(2)]));
    }

    #[test]
    fn incremental_beats_epoch_on_single_link_failure() {
        // Path vector on a 20-node tree with redundant chords: every `path`
        // tuple's derivation is pinned to its route, so a link failure
        // retracts exactly the paths through the failed link.  That must
        // cost fewer derivations than re-running the whole fixpoint.
        let mut edges: Vec<(u32, u32, i64)> = (1..20u32).map(|i| ((i - 1) / 2, i, 1)).collect();
        edges.push((7, 12, 1));
        edges.push((4, 9, 1));
        let mut prog = programs::path_vector();
        programs::add_links(&mut prog, &edges);
        let mut engine = IncrementalEngine::new(&prog).unwrap();

        let out = engine.apply(&link_deltas(1, 4, 1, false)).unwrap();

        let remaining: Vec<(u32, u32, i64)> = edges
            .iter()
            .copied()
            .filter(|&(a, b, _)| !(a == 1 && b == 4))
            .collect();
        let mut scratch = programs::path_vector();
        programs::add_links(&mut scratch, &remaining);
        let ev = crate::eval::Evaluator::new(&scratch).unwrap();
        let mut db = ev.base_database(&scratch);
        let epoch = ev.run(&mut db).unwrap();

        assert_eq!(
            engine.database(),
            db.to_named(ev.symbols()),
            "incremental result must equal epoch recomputation"
        );
        assert!(
            out.stats.derivations < epoch.derivations,
            "incremental ({}) must beat epoch ({})",
            out.stats.derivations,
            epoch.derivations
        );
    }

    #[test]
    fn batch_outcome_reports_net_changes_only() {
        let prog = parse_program("a d(X) :- e(X). e(1).").unwrap();
        let mut engine = IncrementalEngine::new(&prog).unwrap();
        // Delete and re-insert in one batch: no net change.
        let out = engine
            .apply(&[
                TupleDelta::remove("e", vec![Value::Int(1)]),
                TupleDelta::insert("e", vec![Value::Int(1)]),
            ])
            .unwrap();
        assert!(
            out.changes.is_empty(),
            "round-trip nets to zero: {:?}",
            out.changes
        );
    }

    #[test]
    fn divergent_insertion_is_guarded() {
        let prog = parse_program("a q(N) :- q(M), N = M + 1. q(0).").unwrap();
        let err = IncrementalEngine::build(
            &prog,
            EvalOptions {
                max_iterations: 50,
                max_tuples: 1_000_000,
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn randomized_churn_agrees_with_from_scratch() {
        // Deterministic pseudo-random churn over a 6-node graph, checked
        // against the from-scratch evaluator after every batch.
        let all_edges: Vec<(u32, u32, i64)> = (0..6u32)
            .flat_map(|a| ((a + 1)..6).map(move |b| (a, b, 1)))
            .collect();
        let mut present: Vec<bool> = all_edges.iter().map(|_| true).collect();
        let mut prog = programs::reachability();
        programs::add_links(&mut prog, &all_edges);
        let mut engine = IncrementalEngine::new(&prog).unwrap();

        let mut state = 0x12345678u64;
        for _ in 0..40 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (state >> 33) as usize % all_edges.len();
            let (a, b, c) = all_edges[i];
            let up = !present[i];
            present[i] = up;
            engine.apply(&link_deltas(a, b, c, up)).unwrap();

            let live: Vec<(u32, u32, i64)> = all_edges
                .iter()
                .zip(&present)
                .filter(|(_, &p)| p)
                .map(|(&e, _)| e)
                .collect();
            assert_eq!(
                engine.database(),
                oracle(programs::REACHABILITY, &live),
                "divergence after toggling edge {a}-{b}"
            );
        }
    }

    // ------------------------------------------------------------------
    // interned API
    // ------------------------------------------------------------------

    /// `apply_interned` is the same maintenance as `apply`, minus the name
    /// translation: identical databases, stats, and (modulo rendering) net
    /// changes.
    #[test]
    fn interned_apply_matches_name_keyed_apply() {
        let edges = [(0, 1, 1), (1, 2, 2), (0, 2, 9)];
        let mut prog = programs::path_vector();
        programs::add_links(&mut prog, &edges);
        let mut by_name = IncrementalEngine::new(&prog).unwrap();
        let mut by_id = IncrementalEngine::new(&prog).unwrap();

        let link = by_id.symbols().lookup("link").unwrap();
        let batch_named = link_deltas(0, 1, 1, false);
        let batch_interned: Vec<RelDelta> = link_tuples(0, 1, 1)
            .into_iter()
            .map(|t| RelDelta::remove(link, t))
            .collect();

        let named = by_name.apply(&batch_named).unwrap();
        let interned = by_id.apply_interned(&batch_interned).unwrap();
        assert_eq!(by_name.database(), by_id.database());
        assert_eq!(named.stats, interned.stats);
        // Rendering the interned changes reproduces the named ones.
        let symbols = by_id.symbols();
        let mut rendered: Vec<TupleDelta> = interned
            .changes
            .iter()
            .map(|c| TupleDelta {
                pred: symbols.name(c.rel).to_string(),
                tuple: c.tuple.to_tuple(),
                delta: c.delta,
            })
            .collect();
        rendered.sort();
        assert_eq!(named.changes, rendered);
    }

    /// Ids agree across engines built independently from the same program,
    /// the property the distributed runtime relies on to ship raw ids.
    #[test]
    fn independently_built_engines_share_ids() {
        let mut prog = programs::path_vector();
        programs::add_links(&mut prog, &[(0, 1, 1)]);
        let a = IncrementalEngine::new(&prog).unwrap();
        let b = IncrementalEngine::new(&prog).unwrap();
        for pred in ["link", "path", "bestPath", "bestPathCost"] {
            assert_eq!(a.symbols().lookup(pred), b.symbols().lookup(pred), "{pred}");
            assert!(a.symbols().lookup(pred).is_some());
        }
    }
}
