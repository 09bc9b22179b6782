//! Centralized NDlog evaluation: the one evaluation kernel.
//!
//! [`Evaluator::run`] is stratified bottom-up *semi-naive* (delta-driven)
//! evaluation over an interned [`IdDatabase`]: relations are dense
//! [`RelId`]s from the analysis's [`Symbols`] table and tuples are shared
//! handles.  Every from-scratch path runs this one loop — [`eval_program`],
//! the `Session::oracle()` backend, and the magic-set plans behind
//! `Session::query` — so the semantics the differential harnesses check is
//! the semantics that runs.  [`Evaluator::run_naive`] is the reference
//! *naive* iterator over the same store; a property test in this module and
//! in `tests/` checks `naive ≡ semi-naive` on randomized programs.
//!
//! `run` joins each rule body along a cost-ordered plan and probes hash
//! indexes built for that one call; `run_naive` (and [`derive_rule_id`])
//! join in source order by full scans, so the reference shares no plan or
//! index with the kernel it checks.
//!
//! [`Database`] is only the name-keyed *rendering* of a result
//! ([`IdDatabase::to_named`], `RelationStorage::to_database`) for tests,
//! goldens and external readers; nothing evaluates over it.
//!
//! Aggregates (`min`/`max`/`count`/`sum`) are evaluated at the start of their
//! stratum, which is sound because stratification forces their rule bodies to
//! refer only to lower strata (see [`crate::safety`]).

use crate::ast::*;
use crate::builtins::eval_builtin;
use crate::error::{NdlogError, Result};
use crate::safety::{analyze, Analysis};
use crate::storage::HashIndex;
use crate::symbols::{RelId, Symbols};
use crate::value::{SharedTuple, Tuple, Value};
use fvn_telemetry::{Counter, Histogram, Telemetry};
use std::collections::{BTreeMap, BTreeSet};

/// A deterministic name-keyed rendering of an evaluation result: relation
/// name → set of tuples.  Built by [`IdDatabase::to_named`] and
/// `RelationStorage::to_database`; evaluation itself never reads it.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Database {
    rels: BTreeMap<String, BTreeSet<Tuple>>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a tuple; returns true if it was new.
    pub fn insert(&mut self, pred: impl Into<String>, tuple: Tuple) -> bool {
        self.rels.entry(pred.into()).or_default().insert(tuple)
    }

    /// Tuples of a relation (empty slice view if absent).
    pub fn relation(&self, pred: &str) -> impl Iterator<Item = &Tuple> {
        self.rels.get(pred).into_iter().flatten()
    }

    /// Number of tuples in a relation.
    pub fn len_of(&self, pred: &str) -> usize {
        self.rels.get(pred).map(|s| s.len()).unwrap_or(0)
    }

    /// Total number of tuples across all relations.
    pub fn total(&self) -> usize {
        self.rels.values().map(|s| s.len()).sum()
    }

    /// Whether the tuple is present.
    pub fn contains(&self, pred: &str, tuple: &Tuple) -> bool {
        self.rels
            .get(pred)
            .map(|s| s.contains(tuple))
            .unwrap_or(false)
    }

    /// All relation names present.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.rels.keys().map(String::as_str)
    }

    /// Merge all tuples of `other` into `self`.
    pub fn absorb(&mut self, other: &Database) {
        for (p, ts) in &other.rels {
            let e = self.rels.entry(p.clone()).or_default();
            for t in ts {
                e.insert(t.clone());
            }
        }
    }
}

/// The evaluation store: dense [`RelId`] → set of [`SharedTuple`]s,
/// `Vec`-indexed by id.
///
/// [`Evaluator::run`] evaluates over this store, so joins never compare a
/// `String` key and derived tuples are shared handles, not deep copies.
/// Ids must come from the evaluator's own [`Symbols`] table
/// ([`Evaluator::symbols`]); `analyze` interns every program predicate in
/// sorted name order, so id order coincides with name order and
/// [`to_named`](IdDatabase::to_named) renders byte-identical output.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct IdDatabase {
    rels: Vec<BTreeSet<SharedTuple>>,
}

impl IdDatabase {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, rel: RelId) -> &mut BTreeSet<SharedTuple> {
        if self.rels.len() <= rel.index() {
            self.rels.resize_with(rel.index() + 1, BTreeSet::new);
        }
        &mut self.rels[rel.index()]
    }

    /// Insert a tuple; returns true if it was new.
    pub fn insert(&mut self, rel: RelId, tuple: SharedTuple) -> bool {
        self.slot(rel).insert(tuple)
    }

    /// Pre-size the relation table to `n` slots.  The derived comparisons
    /// see trailing empty slots, so databases that should compare by
    /// *content* (e.g. explorer states diverging from one start by inserts
    /// alone) must start from a table already sized for every interned
    /// relation.
    pub fn reserve_rels(&mut self, n: usize) {
        if self.rels.len() < n {
            self.rels.resize_with(n, BTreeSet::new);
        }
    }

    /// Remove a tuple; returns true if it was present.
    pub fn remove(&mut self, rel: RelId, tuple: &[Value]) -> bool {
        self.rels
            .get_mut(rel.index())
            .map(|s| s.remove(tuple))
            .unwrap_or(false)
    }

    /// Tuples of a relation (empty view if absent).
    pub fn relation(&self, rel: RelId) -> impl Iterator<Item = &SharedTuple> {
        self.set(rel).into_iter().flatten()
    }

    /// The tuple set of a relation, if it has a slot.
    fn set(&self, rel: RelId) -> Option<&BTreeSet<SharedTuple>> {
        self.rels.get(rel.index())
    }

    /// Whether the tuple is present.
    pub fn contains(&self, rel: RelId, tuple: &[Value]) -> bool {
        self.rels
            .get(rel.index())
            .map(|s| s.contains(tuple))
            .unwrap_or(false)
    }

    /// Number of tuples in a relation.
    pub fn len_of(&self, rel: RelId) -> usize {
        self.rels.get(rel.index()).map(|s| s.len()).unwrap_or(0)
    }

    /// Total number of tuples across all relations.
    pub fn total(&self) -> usize {
        self.rels.iter().map(|s| s.len()).sum()
    }

    /// One past the highest id that may hold tuples (iteration bound).
    pub fn num_rels(&self) -> usize {
        self.rels.len()
    }

    /// Render the name-keyed [`Database`] view (boundary use only — tests,
    /// snapshots, external readers; evaluation stays id-native).
    pub fn to_named(&self, symbols: &Symbols) -> Database {
        let mut db = Database::new();
        for (i, ts) in self.rels.iter().enumerate() {
            if ts.is_empty() {
                continue;
            }
            let name = symbols.name(RelId::from_index(i));
            for t in ts {
                db.insert(name, t.to_tuple());
            }
        }
        db
    }
}

/// Variable bindings during rule evaluation.
pub type Env = BTreeMap<String, Value>;

/// Evaluate an expression under an environment of ground bindings.
pub fn eval_expr(e: &Expr, env: &Env) -> Result<Value> {
    match e {
        Expr::Var(v) => env.get(v).cloned().ok_or_else(|| NdlogError::Eval {
            msg: format!("unbound variable {v}"),
        }),
        Expr::Const(c) => Ok(c.clone()),
        Expr::Bin(op, a, b) => {
            let va = eval_expr(a, env)?;
            let vb = eval_expr(b, env)?;
            let (ia, ib) = match (va.as_int(), vb.as_int()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(NdlogError::Eval {
                        msg: format!("arithmetic on non-integers: {va} {op} {vb}"),
                    })
                }
            };
            let r = match op {
                BinOp::Add => ia.checked_add(ib),
                BinOp::Sub => ia.checked_sub(ib),
                BinOp::Mul => ia.checked_mul(ib),
                BinOp::Div => {
                    if ib == 0 {
                        return Err(NdlogError::Eval {
                            msg: "division by zero".into(),
                        });
                    }
                    ia.checked_div(ib)
                }
            };
            r.map(Value::Int).ok_or(NdlogError::Eval {
                msg: "integer overflow".into(),
            })
        }
        Expr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(a, env)?);
            }
            eval_builtin(name, &vals)
        }
    }
}

/// Match an atom's argument terms against a concrete tuple, extending `env`.
/// Returns false (leaving `env` possibly partially extended — callers clone)
/// if the match fails.
pub(crate) fn match_atom(atom: &Atom, tuple: &[Value], env: &mut Env) -> bool {
    if atom.args.len() != tuple.len() {
        return false;
    }
    for (t, v) in atom.args.iter().zip(tuple.iter()) {
        match t {
            Term::Const(c) => {
                if c != v {
                    return false;
                }
            }
            Term::Var(name) => match env.get(name) {
                Some(bound) => {
                    if bound != v {
                        return false;
                    }
                }
                None => {
                    env.insert(name.clone(), v.clone());
                }
            },
        }
    }
    true
}

/// Cheap pre-check of an atom against a tuple under the current bindings:
/// constants and already-bound variables must agree on every position.
/// Allocation-free — join loops run it first so the environment is cloned
/// only for tuples that can actually match (a repeated unbound variable can
/// still fail the full [`match_atom`], which stays authoritative).
pub(crate) fn atom_matches_bound(atom: &Atom, tuple: &[Value], env: &Env) -> bool {
    if atom.args.len() != tuple.len() {
        return false;
    }
    atom.args.iter().zip(tuple).all(|(t, v)| match t {
        Term::Const(c) => c == v,
        Term::Var(name) => env.get(name).is_none_or(|b| b == v),
    })
}

/// Instantiate a (non-aggregate) head under an environment.
pub(crate) fn instantiate_head(head: &Head, env: &Env) -> Result<Tuple> {
    let mut out = Vec::with_capacity(head.args.len());
    for a in &head.args {
        match a {
            HeadArg::Term(Term::Const(c)) => out.push(c.clone()),
            HeadArg::Term(Term::Var(v)) => {
                out.push(env.get(v).cloned().ok_or_else(|| NdlogError::Eval {
                    msg: format!("unbound head var {v}"),
                })?)
            }
            HeadArg::Agg(..) => {
                return Err(NdlogError::Eval {
                    msg: "aggregate head instantiated as plain head".into(),
                })
            }
        }
    }
    Ok(out)
}

/// How a planned step reads its literal's relation (positive atoms only;
/// the other literals ignore it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// Walk every tuple of the relation.
    Scan,
    /// Walk the round's delta: the semi-naive delta position.
    Delta,
    /// Probe the run's hash index at this position of
    /// [`RunIndexes::by_rel`] with the step's bound values.
    Probe(usize),
}

/// One step of a body plan: which literal, and how an atom reads it.
#[derive(Debug, Clone, Copy)]
struct Step {
    lit: usize,
    access: Access,
}

/// The body in source order with full scans: the plan of
/// [`Evaluator::run_naive`] and [`derive_rule_id`].
fn source_order(body: &[Literal]) -> Vec<Step> {
    (0..body.len())
        .map(|lit| Step {
            lit,
            access: Access::Scan,
        })
        .collect()
}

/// The per-run hash indexes of [`Evaluator::run`], kept beside the
/// database rather than inside it, so [`IdDatabase`]'s API and ordering
/// stay those of a plain tuple store.  Each index is back-filled when a
/// plan first considers its `(relation, bound columns)` pattern and is
/// extended with every tuple the run inserts afterwards.
#[derive(Debug, Default)]
struct RunIndexes {
    /// Indexed by [`RelId::index`]; each relation's indexes in creation
    /// order (never removed within a run, so positions are stable).
    by_rel: Vec<Vec<HashIndex>>,
}

impl RunIndexes {
    /// Position of the index of `rel` on `cols`, back-filling it from `db`
    /// on first use.
    fn ensure(&mut self, db: &IdDatabase, rel: RelId, cols: &[usize]) -> usize {
        if self.by_rel.len() <= rel.index() {
            self.by_rel.resize_with(rel.index() + 1, Vec::new);
        }
        let slot = &mut self.by_rel[rel.index()];
        if let Some(k) = slot.iter().position(|ix| ix.cols() == cols) {
            return k;
        }
        slot.push(HashIndex::build(cols, db.relation(rel)));
        slot.len() - 1
    }

    fn get(&self, rel: RelId, k: usize) -> &HashIndex {
        &self.by_rel[rel.index()][k]
    }

    /// Insert into `db`, extending the relation's indexes when the tuple
    /// is new.
    fn insert(&mut self, db: &mut IdDatabase, rel: RelId, tuple: SharedTuple) -> bool {
        let new = db.insert(rel, tuple.clone());
        if let Some(slot) = self.by_rel.get_mut(rel.index()).filter(|_| new) {
            slot.iter_mut().for_each(|ix| ix.insert(&tuple));
        }
        new
    }
}

/// The unplaced positive atom with the smallest expected bucket, and how
/// to read it: relation size ÷ distinct keys of the index on its bound
/// columns, or relation size when no column is bound; ties go to source
/// order.  An empty relation costs nothing and is scanned, so it gets no
/// index until it holds tuples.  `first`, the first unplaced literal, is
/// a positive atom, so there is always one to pick.
fn cheapest_atom(
    body: &[Literal],
    rels: &[Option<RelId>],
    placed: &[bool],
    first: usize,
    bound: &BTreeSet<&str>,
    db: &IdDatabase,
    ix: &mut RunIndexes,
) -> (usize, Access) {
    let mut best = (f64::INFINITY, first, Access::Scan);
    for i in (first..body.len()).filter(|&i| !placed[i]) {
        let (Literal::Pos(atom), Some(rel)) = (&body[i], rels[i]) else {
            continue;
        };
        let cols: Vec<usize> = (0..atom.args.len())
            .filter(|&c| match &atom.args[c] {
                Term::Const(_) => true,
                Term::Var(v) => bound.contains(v.as_str()),
            })
            .collect();
        let size = db.len_of(rel) as f64;
        let (cost, access) = if cols.is_empty() || size == 0.0 {
            (size, Access::Scan)
        } else {
            let k = ix.ensure(db, rel, &cols);
            let keys = ix.get(rel, k).keys().max(1);
            (size / keys as f64, Access::Probe(k))
        };
        if cost < best.0 {
            best = (cost, i, access);
        }
    }
    (best.1, best.2)
}

/// Plan a rule body for one pass over `db`: the delta atom (if any)
/// first; then, while the first unplaced literal is an assignment,
/// comparison or negation, that literal; otherwise the
/// [`cheapest_atom`], whose indexes are built in `ix` as their patterns
/// are considered.
///
/// A non-atom literal is placed only after every literal before it.
/// Bodies come from [`analyze`] in a safe order, so the literal's inputs
/// are bound by then, and it sees only bindings that a source-order join
/// would also give it: a partial expression (division, a builtin) fails
/// under the plan only where it fails in source order too.  Reordering
/// atoms never changes the set of complete bindings a body yields: every
/// atom's tuple is determined by the binding, so each firing is
/// enumerated exactly once under any order.
fn plan_body(
    body: &[Literal],
    rels: &[Option<RelId>],
    delta_at: Option<usize>,
    db: &IdDatabase,
    ix: &mut RunIndexes,
) -> Vec<Step> {
    let mut placed = vec![false; body.len()];
    let mut bound: BTreeSet<&str> = BTreeSet::new();
    let mut steps = Vec::with_capacity(body.len());
    let mut next = delta_at.map(|d| (d, Access::Delta));
    while let Some(first) = placed.iter().position(|&p| !p) {
        let (i, access) = next.take().unwrap_or_else(|| match &body[first] {
            Literal::Pos(_) => cheapest_atom(body, rels, &placed, first, &bound, db, ix),
            _ => (first, Access::Scan),
        });
        placed[i] = true;
        match &body[i] {
            Literal::Pos(a) => bound.extend(a.args.iter().filter_map(|t| match t {
                Term::Var(v) => Some(v.as_str()),
                Term::Const(_) => None,
            })),
            Literal::Assign(v, _) => {
                bound.insert(v.as_str());
            }
            _ => {}
        }
        steps.push(Step { lit: i, access });
    }
    steps
}

/// One rule body bound to a plan and the stores it reads.  Atom
/// predicates resolve through `rels` (aligned to `body`, `Some` exactly at
/// atom literals).
struct Join<'a> {
    body: &'a [Literal],
    rels: &'a [Option<RelId>],
    steps: &'a [Step],
    db: &'a IdDatabase,
    delta: Option<&'a IdDatabase>,
    ix: &'a RunIndexes,
}

impl Join<'_> {
    /// Call `sink` with every complete environment of the body.
    fn run(&self, sink: &mut dyn FnMut(&Env) -> Result<()>) -> Result<()> {
        self.step(0, &Env::new(), &mut Vec::new(), sink)
    }

    /// The values of `terms` under `env`, into `out`.
    fn ground<'t>(
        terms: impl Iterator<Item = &'t Term>,
        env: &Env,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        out.clear();
        for t in terms {
            out.push(match t {
                Term::Const(c) => c.clone(),
                Term::Var(v) => env.get(v).cloned().ok_or_else(|| NdlogError::Eval {
                    msg: format!("unbound var {v}"),
                })?,
            });
        }
        Ok(())
    }

    /// Run plan step `k` onward under `env`.  `key` is scratch space for
    /// probe keys, free again once a probe has returned its bucket.
    fn step(
        &self,
        k: usize,
        env: &Env,
        key: &mut Vec<Value>,
        sink: &mut dyn FnMut(&Env) -> Result<()>,
    ) -> Result<()> {
        let Some(step) = self.steps.get(k) else {
            return sink(env);
        };
        match &self.body[step.lit] {
            Literal::Pos(atom) => {
                let rel = self.rels[step.lit].expect("positive literal has a resolved id");
                let tuples = match step.access {
                    Access::Scan => self.db.set(rel),
                    Access::Delta => self.delta.expect("delta db").set(rel),
                    Access::Probe(i) => {
                        let ix = self.ix.get(rel, i);
                        Self::ground(ix.cols().iter().map(|&c| &atom.args[c]), env, key)?;
                        ix.get(key)
                    }
                };
                for tuple in tuples.into_iter().flatten() {
                    if !atom_matches_bound(atom, tuple, env) {
                        continue;
                    }
                    let mut env2 = env.clone();
                    if match_atom(atom, tuple, &mut env2) {
                        self.step(k + 1, &env2, key, sink)?;
                    }
                }
                Ok(())
            }
            Literal::Neg(atom) => {
                let rel = self.rels[step.lit].expect("negative literal has a resolved id");
                Self::ground(atom.args.iter(), env, key)?;
                if !self.db.contains(rel, key) {
                    self.step(k + 1, env, key, sink)?;
                }
                Ok(())
            }
            Literal::Assign(v, e) => {
                let val = eval_expr(e, env)?;
                match env.get(v) {
                    Some(bound) if *bound != val => Ok(()), // equality check fails
                    Some(_) => self.step(k + 1, env, key, sink),
                    None => {
                        let mut env2 = env.clone();
                        env2.insert(v.clone(), val);
                        self.step(k + 1, &env2, key, sink)
                    }
                }
            }
            Literal::Cmp(a, op, b) => {
                let va = eval_expr(a, env)?;
                let vb = eval_expr(b, env)?;
                if op.eval(&va, &vb) {
                    self.step(k + 1, env, key, sink)?;
                }
                Ok(())
            }
        }
    }
}

/// Options bounding an evaluation run.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Maximum number of semi-naive iterations per stratum before aborting
    /// with an error (guards non-terminating programs).
    pub max_iterations: usize,
    /// Maximum number of derived tuples before aborting.
    pub max_tuples: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_iterations: 1_000_000,
            max_tuples: 10_000_000,
        }
    }
}

/// Statistics from an evaluation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint iterations summed over strata.
    pub iterations: usize,
    /// Tuples derived (including duplicates suppressed by set semantics).
    pub derivations: usize,
    /// Rule firings that produced a *new* tuple.
    pub new_tuples: usize,
}

/// The single derivation-counting entry point.
///
/// Every rule-firing site — aggregate evaluation, the semi-naive seed pass
/// and rounds, the naive reference loop, and the incremental engine's
/// sharded workers — reports here, keeping the local count (merged into
/// [`EvalStats::derivations`]) and the telemetry sink in lock step.  The
/// sink is an atomic, so sharded workers feed it concurrently; the sum is
/// order-insensitive and therefore identical at every shard count.
#[inline]
pub(crate) fn count_derivation(derivations: &mut usize, sink: &Counter) {
    *derivations += 1;
    sink.incr();
}

/// Pre-resolved telemetry handles for the from-scratch evaluator.
///
/// Resolved once in [`Evaluator::with_telemetry`]; the default is the
/// no-op sink, so un-instrumented evaluations pay one inline branch per
/// record site.
#[derive(Debug, Clone, Default)]
pub(crate) struct EvalMetrics {
    /// `ndlog_derivations_total`: every rule firing.
    pub(crate) derivations: Counter,
    /// `ndlog_eval_rounds_total`: semi-naive fixpoint iterations.
    pub(crate) rounds: Counter,
    /// `ndlog_phase_seminaive_ns`: wall time per stratum fixpoint.
    pub(crate) phase: Histogram,
}

impl EvalMetrics {
    /// Resolve the evaluator's metric handles against `t`.
    pub(crate) fn resolve(t: &Telemetry) -> Self {
        EvalMetrics {
            derivations: t.counter("ndlog_derivations_total"),
            rounds: t.counter("ndlog_eval_rounds_total"),
            phase: t.histogram("ndlog_phase_seminaive_ns"),
        }
    }
}

pub(crate) fn aggregate(func: AggFunc, values: &[Value]) -> Result<Value> {
    if values.is_empty() {
        return Err(NdlogError::Eval {
            msg: "aggregate over empty group".into(),
        });
    }
    match func {
        AggFunc::Min => Ok(values.iter().min().cloned().unwrap()),
        AggFunc::Max => Ok(values.iter().max().cloned().unwrap()),
        AggFunc::Count => Ok(Value::Int(values.len() as i64)),
        AggFunc::Sum => {
            let mut acc: i64 = 0;
            for v in values {
                let i = v.as_int().ok_or_else(|| NdlogError::Eval {
                    msg: format!("sum over non-int {v}"),
                })?;
                acc = acc.checked_add(i).ok_or(NdlogError::Eval {
                    msg: "sum overflow".into(),
                })?;
            }
            Ok(Value::Int(acc))
        }
    }
}

/// A rule with its atom predicates resolved to dense ids once per run —
/// the per-rule compile step of the kernel.
struct IdRule<'a> {
    rule: &'a Rule,
    head: RelId,
    /// Aligned to `rule.body`: `Some(id)` at `Pos`/`Neg` literals.
    body: Vec<Option<RelId>>,
}

impl IdRule<'_> {
    /// Plan this rule's body for one pass (see [`plan_body`]).
    fn plan(&self, delta_at: Option<usize>, db: &IdDatabase, ix: &mut RunIndexes) -> Vec<Step> {
        plan_body(&self.rule.body, &self.body, delta_at, db, ix)
    }

    /// This rule's body bound to `steps` and the stores it reads.
    fn join<'a>(
        &'a self,
        steps: &'a [Step],
        db: &'a IdDatabase,
        delta: Option<&'a IdDatabase>,
        ix: &'a RunIndexes,
    ) -> Join<'a> {
        Join {
            body: &self.rule.body,
            rels: &self.body,
            steps,
            db,
            delta,
            ix,
        }
    }
}

fn compile_id_rules<'a>(rules: &[&'a Rule], symbols: &Symbols) -> Vec<IdRule<'a>> {
    let resolve = |pred: &str| {
        symbols
            .lookup(pred)
            .expect("program predicates are interned at analysis")
    };
    rules
        .iter()
        .map(|r| IdRule {
            rule: r,
            head: resolve(&r.head.pred),
            body: r
                .body
                .iter()
                .map(|l| match l {
                    Literal::Pos(a) | Literal::Neg(a) => Some(resolve(&a.pred)),
                    _ => None,
                })
                .collect(),
        })
        .collect()
}

/// Evaluate an aggregate rule whose body refers only to lower strata,
/// joining its body along `steps`.
fn eval_agg_rule_id(
    rule: &IdRule<'_>,
    steps: &[Step],
    db: &mut IdDatabase,
    ix: &mut RunIndexes,
    stats: &mut EvalStats,
    deriv_sink: &Counter,
) -> Result<()> {
    let head = &rule.rule.head;
    let n_aggs = head
        .args
        .iter()
        .filter(|a| matches!(a, HeadArg::Agg(..)))
        .count();
    let mut groups: BTreeMap<Tuple, Vec<Vec<Value>>> = BTreeMap::new();
    let mut sink = |env: &Env| -> Result<()> {
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
        Ok(())
    };
    rule.join(steps, db, None, ix).run(&mut sink)?;

    for (key, accs) in groups {
        let mut ki = 0usize;
        let mut ai = 0usize;
        let mut out = Vec::with_capacity(head.args.len());
        for a in &head.args {
            match a {
                HeadArg::Term(_) => {
                    out.push(key[ki].clone());
                    ki += 1;
                }
                HeadArg::Agg(func, _) => {
                    out.push(aggregate(*func, &accs[ai])?);
                    ai += 1;
                }
            }
        }
        count_derivation(&mut stats.derivations, deriv_sink);
        if ix.insert(db, rule.head, SharedTuple::from(out)) {
            stats.new_tuples += 1;
        }
    }
    Ok(())
}

/// The evaluation engine. Holds the analyzed program.
#[derive(Debug, Clone)]
pub struct Evaluator {
    analysis: Analysis,
    opts: EvalOptions,
    metrics: EvalMetrics,
}

impl Evaluator {
    /// Analyze `prog` and build an evaluator.
    pub fn new(prog: &Program) -> Result<Self> {
        Ok(Evaluator {
            analysis: analyze(prog)?,
            opts: EvalOptions::default(),
            metrics: EvalMetrics::default(),
        })
    }

    /// Analyze with custom bounds.
    pub fn with_options(prog: &Program, opts: EvalOptions) -> Result<Self> {
        Ok(Evaluator {
            analysis: analyze(prog)?,
            opts,
            metrics: EvalMetrics::default(),
        })
    }

    /// Route this evaluator's counters and phase timers into `t`.
    ///
    /// The default sink is the no-op variant; resolving against an enabled
    /// [`Telemetry`] registers `ndlog_derivations_total`,
    /// `ndlog_eval_rounds_total`, and `ndlog_phase_seminaive_ns`.
    pub fn with_telemetry(mut self, t: &Telemetry) -> Self {
        self.metrics = EvalMetrics::resolve(t);
        self
    }

    /// Access the static analysis.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The interner shared with the analysis (every program predicate is
    /// resolved, in sorted name order — see [`crate::symbols`]).
    pub fn symbols(&self) -> &Symbols {
        &self.analysis.symbols
    }

    /// Load the program's ground facts into a database keyed by this
    /// evaluator's [`Symbols`] table.
    pub fn base_database(&self, prog: &Program) -> IdDatabase {
        let mut db = IdDatabase::new();
        for f in &prog.facts {
            let tuple = f.const_tuple().expect("facts are ground (parser-enforced)");
            let rel = self
                .analysis
                .symbols
                .lookup(&f.pred)
                .expect("program predicates are interned at analysis");
            db.insert(rel, SharedTuple::from(tuple));
        }
        db
    }

    /// The rules of stratum `s`, compiled and split into aggregate and
    /// plain rules.
    fn stratum_rules(&self, s: usize) -> (Vec<IdRule<'_>>, Vec<IdRule<'_>>) {
        let (agg_rules, plain_rules): (Vec<&Rule>, Vec<&Rule>) = self
            .analysis
            .rules_in_stratum(s)
            .into_iter()
            .partition(|r| r.head.has_agg());
        (
            compile_id_rules(&agg_rules, &self.analysis.symbols),
            compile_id_rules(&plain_rules, &self.analysis.symbols),
        )
    }

    /// Run semi-naive evaluation to fixpoint over `db`, in place.
    ///
    /// Each rule body is joined along a cost-ordered plan made at the seed
    /// pass and at the start of every round (the delta atom first, then
    /// the atom with the smallest expected bucket, each filter as soon as
    /// every literal before it is placed), probing hash indexes that live
    /// for this one call.  Plans change which partial bindings are
    /// enumerated first, never which firings happen, so [`EvalStats`]
    /// equals that of a source-order join.
    pub fn run(&self, db: &mut IdDatabase) -> Result<EvalStats> {
        let mut stats = EvalStats::default();
        let mut ix = RunIndexes::default();
        for s in 0..self.analysis.num_strata {
            self.run_stratum(s, db, &mut ix, &mut stats)?;
        }
        Ok(stats)
    }

    /// Evaluate a single stratum to fixpoint.
    fn run_stratum(
        &self,
        s: usize,
        db: &mut IdDatabase,
        ix: &mut RunIndexes,
        stats: &mut EvalStats,
    ) -> Result<()> {
        let (agg_rules, plain_rules) = self.stratum_rules(s);
        if agg_rules.is_empty() && plain_rules.is_empty() {
            return Ok(());
        }
        let _span = self.metrics.phase.start_timer();

        // Aggregates first: their bodies only see lower strata (stratification).
        for r in &agg_rules {
            let steps = r.plan(None, db, ix);
            eval_agg_rule_id(r, &steps, db, ix, stats, &self.metrics.derivations)?;
        }

        // Which predicates are recursive within this stratum?
        let stratum_preds: BTreeSet<RelId> = plain_rules
            .iter()
            .chain(agg_rules.iter())
            .map(|r| r.head)
            .collect();

        // Initial pass (every rule over the current db) to seed the delta.
        let mut delta = IdDatabase::new();
        for r in &plain_rules {
            let head = &r.rule.head;
            let steps = r.plan(None, db, ix);
            let mut sink = |env: &Env| -> Result<()> {
                let t = instantiate_head(head, env)?;
                count_derivation(&mut stats.derivations, &self.metrics.derivations);
                if !db.contains(r.head, &t) {
                    delta.insert(r.head, SharedTuple::from(t));
                }
                Ok(())
            };
            r.join(&steps, db, None, ix).run(&mut sink)?;
        }

        // Recursive positive occurrences per rule (invariant across rounds).
        let rec_positions: Vec<(&IdRule<'_>, Vec<usize>)> = plain_rules
            .iter()
            .map(|r| {
                let ps: Vec<usize> = r
                    .body
                    .iter()
                    .enumerate()
                    .zip(&r.rule.body)
                    .filter_map(|((i, rel), l)| match (l, rel) {
                        (Literal::Pos(_), Some(rel)) if stratum_preds.contains(rel) => Some(i),
                        _ => None,
                    })
                    .collect();
                (r, ps)
            })
            .filter(|(_, ps)| !ps.is_empty())
            .collect();

        let mut iter = 0usize;
        while delta.total() > 0 {
            iter += 1;
            stats.iterations += 1;
            self.metrics.rounds.incr();
            if iter > self.opts.max_iterations {
                return Err(NdlogError::Eval {
                    msg: format!("iteration limit exceeded in stratum {s}"),
                });
            }
            // Absorb delta into db (and the run's indexes).
            for i in 0..delta.num_rels() {
                let rel = RelId::from_index(i);
                for t in delta.relation(rel) {
                    if ix.insert(db, rel, t.clone()) {
                        stats.new_tuples += 1;
                    }
                }
            }
            self.check_tuple_limit(db)?;
            // Derive the next delta: substitute the delta at each recursive
            // positive occurrence against the absorbed database.
            let mut next = IdDatabase::new();
            for (r, positions) in &rec_positions {
                let head = &r.rule.head;
                for &pos in positions {
                    let steps = r.plan(Some(pos), db, ix);
                    let mut sink = |env: &Env| -> Result<()> {
                        let t = instantiate_head(head, env)?;
                        count_derivation(&mut stats.derivations, &self.metrics.derivations);
                        if !db.contains(r.head, &t) {
                            next.insert(r.head, SharedTuple::from(t));
                        }
                        Ok(())
                    };
                    r.join(&steps, db, Some(&delta), ix).run(&mut sink)?;
                }
            }
            delta = next;
        }
        Ok(())
    }

    fn check_tuple_limit(&self, db: &IdDatabase) -> Result<()> {
        if db.total() > self.opts.max_tuples {
            return Err(NdlogError::Eval {
                msg: "tuple limit exceeded".into(),
            });
        }
        Ok(())
    }

    /// Reference naive evaluation (used to cross-check semi-naive): every
    /// body joined in source order by full scans, with no index and no
    /// plan, so it shares nothing with [`run`](Self::run) but the
    /// per-literal semantics.
    pub fn run_naive(&self, db: &mut IdDatabase) -> Result<EvalStats> {
        let mut stats = EvalStats::default();
        // Stays empty: source-order steps never probe.
        let mut no_ix = RunIndexes::default();
        for s in 0..self.analysis.num_strata {
            let (agg_rules, plain_rules) = self.stratum_rules(s);
            for r in &agg_rules {
                let steps = source_order(&r.rule.body);
                eval_agg_rule_id(
                    r,
                    &steps,
                    db,
                    &mut no_ix,
                    &mut stats,
                    &self.metrics.derivations,
                )?;
            }
            let mut iter = 0usize;
            loop {
                iter += 1;
                stats.iterations += 1;
                self.metrics.rounds.incr();
                if iter > self.opts.max_iterations {
                    return Err(NdlogError::Eval {
                        msg: format!("iteration limit exceeded in stratum {s}"),
                    });
                }
                let mut new = Vec::new();
                for r in &plain_rules {
                    let head = &r.rule.head;
                    let steps = source_order(&r.rule.body);
                    let mut sink = |env: &Env| -> Result<()> {
                        let t = instantiate_head(head, env)?;
                        count_derivation(&mut stats.derivations, &self.metrics.derivations);
                        if !db.contains(r.head, &t) {
                            new.push((r.head, t));
                        }
                        Ok(())
                    };
                    r.join(&steps, db, None, &no_ix).run(&mut sink)?;
                }
                if new.is_empty() {
                    break;
                }
                for (rel, t) in new {
                    if db.insert(rel, SharedTuple::from(t)) {
                        stats.new_tuples += 1;
                    }
                }
                self.check_tuple_limit(db)?;
            }
        }
        Ok(stats)
    }
}

/// Evaluate a single (non-aggregate) rule once over `db`, returning the head
/// tuples it derives.  Exhaustive explorers (`fvn-mc`'s `NdlogTs`) call this
/// per state, so body predicates resolve against `symbols` once per call
/// instead of once per probed tuple.  Errs if a body predicate is not
/// interned in `symbols`.
pub fn derive_rule_id(rule: &Rule, db: &IdDatabase, symbols: &Symbols) -> Result<Vec<SharedTuple>> {
    let mut rels = Vec::with_capacity(rule.body.len());
    for lit in &rule.body {
        match lit {
            Literal::Pos(a) | Literal::Neg(a) => {
                let rel = symbols.lookup(&a.pred).ok_or_else(|| NdlogError::Eval {
                    msg: format!("predicate {} is not interned", a.pred),
                })?;
                rels.push(Some(rel));
            }
            _ => rels.push(None),
        }
    }
    let mut out = Vec::new();
    let head = &rule.head;
    let mut sink = |env: &Env| -> Result<()> {
        out.push(instantiate_head(head, env)?.into());
        Ok(())
    };
    let steps = source_order(&rule.body);
    let no_ix = RunIndexes::default();
    Join {
        body: &rule.body,
        rels: &rels,
        steps: &steps,
        db,
        delta: None,
        ix: &no_ix,
    }
    .run(&mut sink)?;
    Ok(out)
}

/// Convenience: analyze, load facts, evaluate, and render the result.
pub fn eval_program(prog: &Program) -> Result<Database> {
    let ev = Evaluator::new(prog)?;
    let mut db = ev.base_database(prog);
    ev.run(&mut db)?;
    Ok(db.to_named(ev.symbols()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn addr(n: u32) -> Value {
        Value::Addr(n)
    }

    const PV: &str = r#"
        r1 path(@S,D,P,C):-link(@S,D,C), P=f_init(S,D).
        r2 path(@S,D,P,C):-link(@S,Z,C1), path(@Z,D,P2,C2),
             C=C1+C2, P=f_concatPath(S,P2), f_inPath(P2,S)=false.
        r3 bestPathCost(@S,D,min<C>):-path(@S,D,P,C).
        r4 bestPath(@S,D,P,C):-bestPathCost(@S,D,C), path(@S,D,P,C).
    "#;

    fn line3() -> String {
        // 0 -1- 1 -2- 2 plus a direct expensive link 0 -9- 2
        let mut s = String::from(PV);
        s.push_str(
            "link(@#0,#1,1). link(@#1,#0,1).
             link(@#1,#2,2). link(@#2,#1,2).
             link(@#0,#2,9). link(@#2,#0,9).",
        );
        s
    }

    #[test]
    fn path_vector_on_triangle_finds_optimal_paths() {
        let prog = parse_program(&line3()).unwrap();
        let db = eval_program(&prog).unwrap();
        // best path 0 -> 2 goes via 1 with cost 3, not direct with cost 9.
        let best: Vec<&Tuple> = db
            .relation("bestPath")
            .filter(|t| t[0] == addr(0) && t[1] == addr(2))
            .collect();
        assert_eq!(best.len(), 1);
        assert_eq!(best[0][3], Value::Int(3));
        assert_eq!(best[0][2], Value::List(vec![addr(0), addr(1), addr(2)]));
        // bestPathCost agrees.
        assert!(db.contains("bestPathCost", &vec![addr(0), addr(2), Value::Int(3)]));
    }

    #[test]
    fn cycle_prevention_via_f_in_path() {
        let prog = parse_program(&line3()).unwrap();
        let db = eval_program(&prog).unwrap();
        for t in db.relation("path") {
            let p = t[2].as_list().unwrap();
            let set: BTreeSet<&Value> = p.iter().collect();
            assert_eq!(set.len(), p.len(), "path {t:?} contains a repeated node");
        }
    }

    #[test]
    fn naive_equals_seminaive_on_path_vector() {
        let prog = parse_program(&line3()).unwrap();
        let ev = Evaluator::new(&prog).unwrap();
        let mut a = ev.base_database(&prog);
        let mut b = a.clone();
        ev.run(&mut a).unwrap();
        ev.run_naive(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn negation_stratified_semantics() {
        let prog = parse_program(
            "a reach(X,Y) :- edge(X,Y).
             b reach(X,Y) :- reach(X,Z), edge(Z,Y).
             c unreach(X,Y) :- node(X), node(Y), X != Y, !reach(X,Y).
             node(#0). node(#1). node(#2).
             edge(#0,#1).",
        )
        .unwrap();
        let db = eval_program(&prog).unwrap();
        assert!(db.contains("reach", &vec![addr(0), addr(1)]));
        assert!(db.contains("unreach", &vec![addr(1), addr(0)]));
        assert!(db.contains("unreach", &vec![addr(0), addr(2)]));
        assert!(!db.contains("unreach", &vec![addr(0), addr(1)]));
    }

    #[test]
    fn aggregates_count_and_sum() {
        let prog = parse_program(
            "a deg(X, count<Y>) :- edge(X,Y).
             b wsum(X, sum<W>) :- wedge(X,Y,W).
             edge(#0,#1). edge(#0,#2). edge(#1,#2).
             wedge(#0,#1,3). wedge(#0,#2,4).",
        )
        .unwrap();
        let db = eval_program(&prog).unwrap();
        assert!(db.contains("deg", &vec![addr(0), Value::Int(2)]));
        assert!(db.contains("deg", &vec![addr(1), Value::Int(1)]));
        assert!(db.contains("wsum", &vec![addr(0), Value::Int(7)]));
    }

    #[test]
    fn max_aggregate() {
        let prog = parse_program(
            "a widest(X, max<W>) :- wedge(X,Y,W).
             wedge(#0,#1,3). wedge(#0,#2,8).",
        )
        .unwrap();
        let db = eval_program(&prog).unwrap();
        assert!(db.contains("widest", &vec![addr(0), Value::Int(8)]));
    }

    #[test]
    fn iteration_limit_guards_divergence() {
        // Unbounded counter: q(N+1) :- q(N). Diverges without limits.
        let prog = parse_program("a q(N) :- q(M), N = M + 1. q(0).").unwrap();
        let ev = Evaluator::with_options(
            &prog,
            EvalOptions {
                max_iterations: 50,
                max_tuples: 1_000_000,
            },
        )
        .unwrap();
        let mut db = ev.base_database(&prog);
        assert!(ev.run(&mut db).is_err());
    }

    #[test]
    fn bounded_counter_terminates() {
        let prog = parse_program("a q(N) :- q(M), M < 10, N = M + 1. q(0).").unwrap();
        let db = eval_program(&prog).unwrap();
        assert_eq!(db.len_of("q"), 11);
    }

    #[test]
    fn stats_are_populated() {
        let prog = parse_program(&line3()).unwrap();
        let ev = Evaluator::new(&prog).unwrap();
        let mut db = ev.base_database(&prog);
        let stats = ev.run(&mut db).unwrap();
        assert!(stats.new_tuples > 0);
        assert!(stats.derivations >= stats.new_tuples);
        assert!(stats.iterations > 0);
    }

    #[test]
    fn arithmetic_errors_surface() {
        let prog = parse_program("a p(X) :- q(Y), X = Y / 0. q(1).").unwrap();
        assert!(eval_program(&prog).is_err());
    }

    #[test]
    fn run_index_probe_equals_filtered_scan() {
        let e = RelId::from_index(0);
        let tup = |a: i64, b: i64| SharedTuple::from(vec![Value::Int(a), Value::Int(b)]);
        let mut db = IdDatabase::new();
        for (a, b) in [(1, 2), (1, 3), (2, 3)] {
            db.insert(e, tup(a, b));
        }
        let mut ix = RunIndexes::default();
        let k = ix.ensure(&db, e, &[1]);
        let agree = |ix: &RunIndexes, db: &IdDatabase| {
            for v in 0..6 {
                let key = [Value::Int(v)];
                let probe: Vec<&SharedTuple> =
                    ix.get(e, k).get(&key).into_iter().flatten().collect();
                let scan: Vec<&SharedTuple> = db.relation(e).filter(|t| t[1] == key[0]).collect();
                assert_eq!(probe, scan, "column 1 = {v}");
            }
        };
        // Back-filled from the tuples already stored.
        agree(&ix, &db);
        // Extended as deltas are absorbed; a duplicate is not re-added.
        for (a, b) in [(3, 3), (4, 2), (1, 3), (5, 5)] {
            ix.insert(&mut db, e, tup(a, b));
        }
        agree(&ix, &db);
        assert_eq!(ix.get(e, k).keys(), 3);
        assert_eq!(ix.ensure(&db, e, &[1]), k, "one index per pattern");
    }

    #[test]
    fn plan_puts_delta_first_then_filters_then_the_smallest_bucket() {
        let rule = crate::parser::parse_rule(
            "r h(S,D,C) :- magic(S,D), link(S,Z,C1), reach(Z,D,C2), C = C1 + C2, C < 9.",
        )
        .unwrap();
        let (magic, link, reach) = (
            RelId::from_index(0),
            RelId::from_index(1),
            RelId::from_index(2),
        );
        let rels = [Some(magic), Some(link), Some(reach), None, None];
        let tup =
            |vs: &[u32]| SharedTuple::from(vs.iter().map(|&v| Value::Addr(v)).collect::<Tuple>());
        let mut db = IdDatabase::new();
        // Every demanded `magic(S,D)` shares one D, while `link` has one
        // key per Z: the shape of a magic-set point query.
        for s in 0..20 {
            db.insert(magic, tup(&[s, 7]));
            db.insert(link, tup(&[s, s + 1, 1]));
            db.insert(reach, tup(&[s + 1, 7, 1]));
        }
        let order = |steps: &[Step]| steps.iter().map(|s| (s.lit, s.access)).collect::<Vec<_>>();
        let mut ix = RunIndexes::default();
        // Delta on `reach` binds Z and D.  `link` probed on Z (20 keys, 1
        // tuple each) beats `magic` probed on D (one key of 20).  `magic`
        // comes next, probed on both columns; the assignment and the
        // comparison wait for it, as it precedes them in the body.
        let steps = plan_body(&rule.body, &rels, Some(2), &db, &mut ix);
        assert_eq!(
            order(&steps),
            vec![
                (2, Access::Delta),
                (1, Access::Probe(0)),
                (0, Access::Probe(1)),
                (3, Access::Scan),
                (4, Access::Scan),
            ]
        );
        assert_eq!(ix.get(link, 0).cols(), &[1]);
        assert_eq!(ix.get(magic, 0).cols(), &[1]);
        assert_eq!(ix.get(magic, 1).cols(), &[0, 1]);
        // No delta: all three relations cost 20 unbound, and source order
        // breaks the tie.
        let steps = plan_body(&rule.body, &rels, None, &db, &mut ix);
        assert_eq!(steps[0].lit, 0);
        assert_eq!(steps[0].access, Access::Scan);
        // A filter waits for every literal before it, then goes ahead of
        // the atoms after it: `p` (1 tuple) is scanned before `g` (2), but
        // `Z = X / Y` runs only once `g` has been probed on Y.
        let guarded =
            crate::parser::parse_rule("r h(X,Z) :- g(Y), p(X,Y), Z = X / Y, q(Z).").unwrap();
        let (g, p, q) = (magic, link, reach);
        let mut db = IdDatabase::new();
        db.insert(g, tup(&[1]));
        db.insert(g, tup(&[2]));
        db.insert(p, tup(&[5, 0]));
        for z in 0..3 {
            db.insert(q, tup(&[z]));
        }
        let mut ix = RunIndexes::default();
        let steps = plan_body(
            &guarded.body,
            &[Some(g), Some(p), None, Some(q)],
            None,
            &db,
            &mut ix,
        );
        assert_eq!(
            order(&steps),
            vec![
                (1, Access::Scan),
                (0, Access::Probe(0)),
                (2, Access::Scan),
                (3, Access::Probe(0)),
            ]
        );
    }

    #[test]
    fn plan_never_runs_a_filter_ahead_of_its_guard() {
        // `p` is the smaller relation, so the plan scans it first; its only
        // tuple has Y = 0, which `g` rejects before `X / Y` is computed.
        let prog =
            parse_program("r h(X,Z) :- g(Y), p(X,Y), Z = X / Y. g(1). g(2). p(5,0).").unwrap();
        let ev = Evaluator::new(&prog).unwrap();
        let mut planned = ev.base_database(&prog);
        let mut naive = planned.clone();
        ev.run(&mut planned).unwrap();
        ev.run_naive(&mut naive).unwrap();
        assert_eq!(planned, naive);
        let h = ev.symbols().lookup("h").unwrap();
        assert_eq!(planned.len_of(h), 0);
        assert!(eval_program(&prog).is_ok());
    }

    #[test]
    fn constants_in_rule_heads_and_bodies() {
        let prog = parse_program(
            "a flag(X, 1) :- q(X), X == 5.
             q(5). q(6).",
        )
        .unwrap();
        let db = eval_program(&prog).unwrap();
        assert!(db.contains("flag", &vec![Value::Int(5), Value::Int(1)]));
        assert_eq!(db.len_of("flag"), 1);
    }
}
