//! Demand-driven point queries: a magic-sets rewrite behind a typed,
//! first-class read API.
//!
//! Every backend in this workspace fully materializes every derived
//! relation, and until now the only read path was `Session::database()` —
//! a full clone of the database per call.  A control plane answering point
//! questions ("best path A→B right now?") at production rates should pay
//! only for the demanded sub-goal.  This module provides:
//!
//! * [`Query`] — a predicate plus a per-column binding pattern, e.g.
//!   `bestPath(src=A, dst=B, ?path, ?cost)`: `Some(v)` columns are bound,
//!   `None` columns are free;
//! * [`QueryEngine`] — compiles a query's binding pattern into a
//!   **magic-sets rewrite** of the analyzed program (adorned predicates
//!   `p@bbff`, magic predicates `magic@p@bbff`, external-seed predicates
//!   `ext@p`) and evaluates the rewritten program semi-naively over a
//!   scratch [`IdDatabase`] seeded from the caller's externally-supported
//!   tuples.  Magic predicates are just more [`RelId`]s, so they flow
//!   through the existing interned evaluation unchanged; the session's
//!   incrementally-maintained relations are never touched;
//! * [`QueryResult`] / [`QueryStats`] — the answers plus the work the
//!   demanded evaluation actually did (compare
//!   [`QueryStats::derivations`] against a full materialization to see
//!   the savings).
//!
//! # Adornment rules
//!
//! The rewrite walks the safety-ordered rule bodies left to right with a
//! worklist over `(predicate, bound-column mask)` pairs:
//!
//! * **Bound columns** are those holding a query constant (or, inside rule
//!   bodies, a `Const` argument or a variable already bound by the demand
//!   prefix).  Aggregate output positions are always forced *free* — a
//!   bound aggregate value is applied as a post-filter instead, because
//!   the group must be aggregated in full either way.
//! * Each reached `(p, m)` gets a **seed rule**
//!   `p@m(X…) :- magic@p@m(bound X…), ext@p(X…)` so externally-asserted
//!   tuples of derived relations (the session lets churn assert any
//!   relation) enter the demanded evaluation exactly as they enter the
//!   full one.
//! * Positive IDB atoms are replaced by their adorned version and emit a
//!   magic rule whose body is the **demand prefix**: the root magic atom
//!   plus the EDB atoms, non-aggregate adorned atoms, and
//!   assignments/comparisons already evaluable from demand-bound
//!   variables.  Atoms of aggregate-headed predicates and negated atoms
//!   are deliberately *excluded* from demand prefixes (they would drag
//!   higher strata into the demand cycle and break stratification); their
//!   bindings still filter exactly in the rewritten rule, the demand is
//!   merely a superset — sound, because adorned relations restricted to
//!   the demanded pattern coincide with the true relations.
//! * Negated IDB atoms are adorned with every non-aggregate position
//!   bound (negation safety grounds them fully), which keeps
//!   `probe ∈ p@m ⟺ probe ∈ p` for every demanded probe.
//!
//! If the rewritten program fails re-analysis (magic rewrites of
//! stratified programs are not always stratified), the plan falls back to
//! the original rule set evaluated in full with the binding pattern
//! applied as a post-filter — always correct, never faster.
//!
//! Compiled plans are cached per `(predicate, mask)` shape: the bound
//! *values* flow through the magic seed tuple at evaluation time, so
//! repeated point queries against different keys share one plan.

use crate::ast::{Atom, Head, HeadArg, Literal, Program, Rule, Term};
use crate::error::{NdlogError, Result};
use crate::eval::{EvalOptions, Evaluator, IdDatabase};
use crate::safety::Analysis;
use crate::symbols::RelId;
use crate::value::{SharedTuple, Tuple, Value};
use fvn_telemetry::{Histogram, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Cache of compiled plans, keyed by `(predicate, normalized binding mask)`.
type PlanCache = Mutex<BTreeMap<(String, Vec<bool>), Arc<QueryPlan>>>;

/// A typed point/partial query: a predicate plus one binding per column —
/// `Some(v)` pins the column to `v`, `None` leaves it free.
///
/// ```
/// use ndlog::query::Query;
/// use ndlog::Value;
///
/// // bestPath(src=n0, dst=n2, ?path, ?cost)
/// let q = Query::on("bestPath")
///     .bind(Value::Addr(0))
///     .bind(Value::Addr(2))
///     .free()
///     .free();
/// assert_eq!(q.arity(), 4);
/// assert_eq!(q.to_string(), "bestPath(n0,n2,?,?)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Query {
    pred: String,
    cols: Vec<Option<Value>>,
}

impl Query {
    /// Start a query on `pred`; add columns with [`bind`](Self::bind) and
    /// [`free`](Self::free).
    pub fn on(pred: impl Into<String>) -> Self {
        Query {
            pred: pred.into(),
            cols: Vec::new(),
        }
    }

    /// Append a bound column.
    pub fn bind(mut self, v: Value) -> Self {
        self.cols.push(Some(v));
        self
    }

    /// Append a free column.
    pub fn free(mut self) -> Self {
        self.cols.push(None);
        self
    }

    /// A fully-bound query: does this exact tuple hold?
    pub fn point(pred: impl Into<String>, tuple: &[Value]) -> Self {
        Query {
            pred: pred.into(),
            cols: tuple.iter().cloned().map(Some).collect(),
        }
    }

    /// A fully-free query: every tuple of the relation (the scoped
    /// replacement for a `database()` scan of one relation).
    pub fn scan(pred: impl Into<String>, arity: usize) -> Self {
        Query {
            pred: pred.into(),
            cols: vec![None; arity],
        }
    }

    /// The queried predicate.
    pub fn pred(&self) -> &str {
        &self.pred
    }

    /// The per-column binding pattern.
    pub fn bindings(&self) -> &[Option<Value>] {
        &self.cols
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Does `tuple` match the binding pattern (same arity, every bound
    /// column equal)?
    pub fn matches(&self, tuple: &[Value]) -> bool {
        self.cols.len() == tuple.len()
            && self
                .cols
                .iter()
                .zip(tuple)
                .all(|(c, v)| c.as_ref().is_none_or(|b| b == v))
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, c) in self.cols.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match c {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "?")?,
            }
        }
        write!(f, ")")
    }
}

/// Work counters of one demanded evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// True when the magic-sets rewrite was used; false on the EDB fast
    /// path and on the full-evaluation fallback.
    pub rewritten: bool,
    /// Semi-naive fixpoint iterations of the demanded evaluation.
    pub iterations: usize,
    /// Rule firings of the demanded evaluation (compare against the full
    /// materialization's derivation count to see the demand savings).
    pub derivations: usize,
    /// Distinct tuples the demanded evaluation derived (adorned + magic).
    pub demanded: usize,
    /// Externally-supported tuples fed into the scratch database.
    pub seeded: usize,
    /// Number of answer tuples.
    pub answers: usize,
}

/// Answers plus work counters of one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryResult {
    /// Matching tuples, in the relation's deterministic sorted order —
    /// byte-identical to filtering the fully-materialized database.
    pub tuples: Vec<Tuple>,
    /// What the demanded evaluation did.
    pub stats: QueryStats,
}

impl QueryResult {
    /// True when no tuple matched.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }
}

/// A compiled demand plan: the rewritten (or fallback) program's
/// evaluator, where to seed, and where to read answers.
struct QueryPlan {
    ev: Evaluator,
    /// The relation answers are read from (adorned root, or the original
    /// predicate on the fallback path).
    root: RelId,
    /// Magic-seed relation and the query columns feeding it (None on the
    /// fallback path).
    magic_seed: Option<(RelId, Vec<usize>)>,
    /// `(source predicate, plan relation)` pairs: the caller feeds each
    /// source's externally-supported tuples into the plan relation.
    feeds: Vec<(String, RelId)>,
    rewritten: bool,
}

/// Compiles [`Query`] binding patterns into demand plans and evaluates
/// them against caller-supplied external tuples.
///
/// Backend-agnostic: the caller provides a *feed* — a closure invoked once
/// per source predicate with a sink for that predicate's
/// externally-supported tuples (incremental storage tuples with positive
/// external support, oracle base-multiset entries, the union of live
/// nodes' stores in the distributed runtime).  Plans are cached per
/// `(predicate, mask)` shape and shared by clones of the engine's
/// immutable compilation products.
pub struct QueryEngine {
    /// Safety-ordered rules of the analyzed program.
    rules: Arc<Vec<Rule>>,
    arity: Arc<BTreeMap<String, usize>>,
    location: Arc<BTreeMap<String, Option<usize>>>,
    /// Head predicates (everything else is EDB).
    idb: Arc<BTreeSet<String>>,
    /// Aggregate output positions per predicate (union over its rules).
    agg_cols: Arc<BTreeMap<String, BTreeSet<usize>>>,
    opts: EvalOptions,
    plans: PlanCache,
    metrics: QueryMetrics,
}

/// Pre-resolved phase timers of the query path (no-op sinks by default).
///
/// Plan evaluators keep the no-op sink: a query's firings and rounds are
/// reported in [`QueryStats`], never in the session's
/// `ndlog_derivations_total` / `ndlog_eval_rounds_total`.
#[derive(Debug, Clone, Default)]
struct QueryMetrics {
    /// `ndlog_phase_query_seed_ns`: feeding external tuples (and the magic
    /// seed) into the scratch database.
    seed: Histogram,
    /// `ndlog_phase_query_eval_ns`: running the plan over it.
    eval: Histogram,
}

impl Clone for QueryEngine {
    fn clone(&self) -> Self {
        let plans = self.plans.lock().map(|g| g.clone()).unwrap_or_default();
        QueryEngine {
            rules: Arc::clone(&self.rules),
            arity: Arc::clone(&self.arity),
            location: Arc::clone(&self.location),
            idb: Arc::clone(&self.idb),
            agg_cols: Arc::clone(&self.agg_cols),
            opts: self.opts,
            plans: Mutex::new(plans),
            metrics: self.metrics.clone(),
        }
    }
}

impl fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryEngine")
            .field("rules", &self.rules.len())
            .field("predicates", &self.arity.len())
            .field("cached_plans", &self.cached_plans())
            .finish()
    }
}

fn mask_str(mask: &[bool]) -> String {
    mask.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

fn adorned_name(pred: &str, mask: &[bool]) -> String {
    format!("{pred}@{}", mask_str(mask))
}

fn magic_name(pred: &str, mask: &[bool]) -> String {
    format!("magic@{pred}@{}", mask_str(mask))
}

fn ext_name(pred: &str) -> String {
    format!("ext@{pred}")
}

impl QueryEngine {
    /// Build a query engine over an analyzed program.
    pub fn new(analysis: &Analysis, opts: EvalOptions) -> Self {
        let idb: BTreeSet<String> = analysis.rules.iter().map(|r| r.head.pred.clone()).collect();
        let mut agg_cols: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
        for r in &analysis.rules {
            for (i, a) in r.head.args.iter().enumerate() {
                if matches!(a, HeadArg::Agg(..)) {
                    agg_cols.entry(r.head.pred.clone()).or_default().insert(i);
                }
            }
        }
        QueryEngine {
            rules: Arc::new(analysis.rules.clone()),
            arity: Arc::new(analysis.arity.clone()),
            location: Arc::new(analysis.location.clone()),
            idb: Arc::new(idb),
            agg_cols: Arc::new(agg_cols),
            opts,
            plans: Mutex::new(BTreeMap::new()),
            metrics: QueryMetrics::default(),
        }
    }

    /// Route this engine's phase timers into `t`: resolving against an
    /// enabled [`Telemetry`] registers `ndlog_phase_query_seed_ns` and
    /// `ndlog_phase_query_eval_ns`.
    pub fn with_telemetry(mut self, t: &Telemetry) -> Self {
        self.metrics = QueryMetrics {
            seed: t.histogram("ndlog_phase_query_seed_ns"),
            eval: t.histogram("ndlog_phase_query_eval_ns"),
        };
        self
    }

    /// Number of compiled plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().map(|g| g.len()).unwrap_or(0)
    }

    /// Answer `q` against the external tuples supplied by `feed`.
    ///
    /// `feed` is called once per source predicate with a sink; it must
    /// push every externally-supported tuple of that predicate (and may
    /// push nothing for predicates it does not know).  Answers are
    /// byte-identical to filtering the fully-materialized database with
    /// [`Query::matches`].
    pub fn query<F>(&self, q: &Query, mut feed: F) -> Result<QueryResult>
    where
        F: FnMut(&str, &mut dyn FnMut(SharedTuple)),
    {
        if let Some(&n) = self.arity.get(q.pred()) {
            if n != q.arity() {
                return Err(NdlogError::Schema {
                    predicate: q.pred().to_string(),
                    msg: format!("query has arity {} but the program uses {n}", q.arity()),
                });
            }
        }
        // EDB (or program-unknown) relations have no demanded derivation:
        // read the external tuples straight off the feed.
        if !self.idb.contains(q.pred()) {
            let mut tuples = Vec::new();
            let mut seeded = 0usize;
            let span = self.metrics.seed.start_timer();
            feed(q.pred(), &mut |t| {
                seeded += 1;
                if q.matches(&t) {
                    tuples.push(t.to_tuple());
                }
            });
            span.stop();
            tuples.sort();
            tuples.dedup();
            let stats = QueryStats {
                seeded,
                answers: tuples.len(),
                ..QueryStats::default()
            };
            return Ok(QueryResult { tuples, stats });
        }
        let mask = self.normalize_mask(q);
        let plan = self.plan_for(q.pred(), &mask)?;
        self.execute(&plan, q, &mut feed)
    }

    /// The demand mask of `q`: bound where the query binds, with aggregate
    /// output positions forced free (their bindings post-filter instead).
    fn normalize_mask(&self, q: &Query) -> Vec<bool> {
        let aggs = self.agg_cols.get(q.pred());
        q.bindings()
            .iter()
            .enumerate()
            .map(|(i, c)| c.is_some() && !aggs.is_some_and(|s| s.contains(&i)))
            .collect()
    }

    /// Fetch or compile the plan for `(pred, mask)`.
    fn plan_for(&self, pred: &str, mask: &[bool]) -> Result<Arc<QueryPlan>> {
        let key = (pred.to_string(), mask.to_vec());
        if let Ok(cache) = self.plans.lock() {
            if let Some(p) = cache.get(&key) {
                return Ok(Arc::clone(p));
            }
        }
        let plan = Arc::new(self.build_plan(pred, mask)?);
        if let Ok(mut cache) = self.plans.lock() {
            cache.insert(key, Arc::clone(&plan));
        }
        Ok(plan)
    }

    fn build_plan(&self, pred: &str, mask: &[bool]) -> Result<QueryPlan> {
        let (rules, edb_used, ext_used) = self.rewrite(pred, mask)?;
        let prog = Program {
            materializes: Vec::new(),
            facts: Vec::new(),
            rules,
        };
        match Evaluator::with_options(&prog, self.opts) {
            Ok(ev) => {
                let resolve = |name: &str| {
                    ev.symbols()
                        .lookup(name)
                        .expect("rewritten-program predicates are interned at analysis")
                };
                let root = resolve(&adorned_name(pred, mask));
                let magic = resolve(&magic_name(pred, mask));
                let seed_cols: Vec<usize> = mask
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| i)
                    .collect();
                let mut feeds: Vec<(String, RelId)> = Vec::new();
                for e in &edb_used {
                    feeds.push((e.clone(), resolve(e)));
                }
                for p in &ext_used {
                    feeds.push((p.clone(), resolve(&ext_name(p))));
                }
                Ok(QueryPlan {
                    ev,
                    root,
                    magic_seed: Some((magic, seed_cols)),
                    feeds,
                    rewritten: true,
                })
            }
            // The magic rewrite of a stratified program is not always
            // stratified; fall back to evaluating the original rules in
            // full and post-filtering — correct, never faster.
            Err(_) => {
                let full = Program {
                    materializes: Vec::new(),
                    facts: Vec::new(),
                    rules: self.rules.as_ref().clone(),
                };
                let ev = Evaluator::with_options(&full, self.opts)?;
                let root = ev
                    .symbols()
                    .lookup(pred)
                    .expect("query predicate is a program predicate");
                let feeds: Vec<(String, RelId)> = self
                    .arity
                    .keys()
                    .filter_map(|p| ev.symbols().lookup(p).map(|id| (p.clone(), id)))
                    .collect();
                Ok(QueryPlan {
                    ev,
                    root,
                    magic_seed: None,
                    feeds,
                    rewritten: false,
                })
            }
        }
    }

    /// The magic-sets rewrite: worklist over `(pred, mask)` pairs.
    /// Returns the rewritten rules plus the EDB predicates used unchanged
    /// and the IDB predicates needing an `ext@p` external seed.
    #[allow(clippy::type_complexity)]
    fn rewrite(
        &self,
        pred: &str,
        mask: &[bool],
    ) -> Result<(Vec<Rule>, BTreeSet<String>, BTreeSet<String>)> {
        let mut out = Vec::new();
        let mut edb_used = BTreeSet::new();
        let mut ext_used = BTreeSet::new();
        let mut seen: BTreeSet<(String, Vec<bool>)> = BTreeSet::new();
        let mut queue = vec![(pred.to_string(), mask.to_vec())];
        seen.insert((pred.to_string(), mask.to_vec()));
        while let Some((p, m)) = queue.pop() {
            ext_used.insert(p.clone());
            let n = *self.arity.get(&p).ok_or_else(|| NdlogError::Schema {
                predicate: p.clone(),
                msg: "queried predicate is not part of the program".into(),
            })?;
            let loc = self.location.get(&p).copied().flatten();
            // Seed rule: demanded externally-asserted tuples of p.
            let xs: Vec<Term> = (0..n).map(|i| Term::Var(format!("X{i}"))).collect();
            let magic_args: Vec<Term> = xs
                .iter()
                .zip(&m)
                .filter(|(_, &b)| b)
                .map(|(t, _)| t.clone())
                .collect();
            out.push(Rule {
                name: format!("{p}@ext@{}", mask_str(&m)),
                head: Head {
                    pred: adorned_name(&p, &m),
                    loc,
                    args: xs.iter().cloned().map(HeadArg::Term).collect(),
                },
                body: vec![
                    Literal::Pos(Atom {
                        pred: magic_name(&p, &m),
                        loc: None,
                        args: magic_args,
                    }),
                    Literal::Pos(Atom {
                        pred: ext_name(&p),
                        loc: None,
                        args: xs,
                    }),
                ],
            });
            for r in self.rules.iter().filter(|r| r.head.pred == p) {
                self.adorn_rule(r, &m, &mut out, &mut edb_used, &mut seen, &mut queue)?;
            }
        }
        Ok((out, edb_used, ext_used))
    }

    /// Adorn one rule for demand mask `m` on its head, emitting the
    /// adorned rule plus one magic rule per IDB body atom.
    #[allow(clippy::too_many_arguments)]
    fn adorn_rule(
        &self,
        r: &Rule,
        m: &[bool],
        out: &mut Vec<Rule>,
        edb_used: &mut BTreeSet<String>,
        seen: &mut BTreeSet<(String, Vec<bool>)>,
        queue: &mut Vec<(String, Vec<bool>)>,
    ) -> Result<()> {
        let msk = mask_str(m);
        // The root magic atom: head terms at bound positions.
        let mut root_args = Vec::new();
        let mut demand_bound: BTreeSet<String> = BTreeSet::new();
        for (i, &b) in m.iter().enumerate() {
            if !b {
                continue;
            }
            match &r.head.args[i] {
                HeadArg::Term(t) => {
                    if let Term::Var(v) = t {
                        demand_bound.insert(v.clone());
                    }
                    root_args.push(t.clone());
                }
                HeadArg::Agg(..) => {
                    return Err(NdlogError::Eval {
                        msg: format!(
                            "internal: aggregate position adorned bound in rule {}",
                            r.name
                        ),
                    })
                }
            }
        }
        let root_magic = Literal::Pos(Atom {
            pred: magic_name(&r.head.pred, m),
            loc: None,
            args: root_args,
        });
        let mut new_body: Vec<Literal> = vec![root_magic.clone()];
        // The demand prefix magic rules derive from: root magic + EDB
        // atoms + non-aggregate adorned atoms + constraints evaluable from
        // demand-bound variables.  Aggregate-headed atoms and negations
        // stay out (they would pull higher strata into the demand cycle);
        // over-demanding is sound.
        let mut magic_prefix: Vec<Literal> = vec![root_magic];
        let mut mcount = 0usize;
        let sub_mask_of = |a: &Atom, demand_bound: &BTreeSet<String>| -> Vec<bool> {
            let aggs = self.agg_cols.get(&a.pred);
            a.args
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    if aggs.is_some_and(|s| s.contains(&i)) {
                        return false;
                    }
                    match t {
                        Term::Const(_) => true,
                        Term::Var(v) => demand_bound.contains(v),
                    }
                })
                .collect()
        };
        for lit in &r.body {
            match lit {
                Literal::Pos(a) if self.idb.contains(&a.pred) => {
                    let sub = sub_mask_of(a, &demand_bound);
                    mcount += 1;
                    out.push(Rule {
                        name: format!("{}@m{mcount}@{msk}", r.name),
                        head: Head {
                            pred: magic_name(&a.pred, &sub),
                            loc: None,
                            args: a
                                .args
                                .iter()
                                .zip(&sub)
                                .filter(|(_, &b)| b)
                                .map(|(t, _)| HeadArg::Term(t.clone()))
                                .collect(),
                        },
                        body: magic_prefix.clone(),
                    });
                    if seen.insert((a.pred.clone(), sub.clone())) {
                        queue.push((a.pred.clone(), sub.clone()));
                    }
                    let adorned = Atom {
                        pred: adorned_name(&a.pred, &sub),
                        loc: a.loc,
                        args: a.args.clone(),
                    };
                    if !self.agg_cols.contains_key(&a.pred) {
                        magic_prefix.push(Literal::Pos(adorned.clone()));
                        for t in &a.args {
                            if let Term::Var(v) = t {
                                demand_bound.insert(v.clone());
                            }
                        }
                    }
                    new_body.push(Literal::Pos(adorned));
                }
                Literal::Pos(a) => {
                    edb_used.insert(a.pred.clone());
                    magic_prefix.push(lit.clone());
                    for t in &a.args {
                        if let Term::Var(v) = t {
                            demand_bound.insert(v.clone());
                        }
                    }
                    new_body.push(lit.clone());
                }
                Literal::Neg(a) if self.idb.contains(&a.pred) => {
                    let sub = sub_mask_of(a, &demand_bound);
                    mcount += 1;
                    out.push(Rule {
                        name: format!("{}@m{mcount}@{msk}", r.name),
                        head: Head {
                            pred: magic_name(&a.pred, &sub),
                            loc: None,
                            args: a
                                .args
                                .iter()
                                .zip(&sub)
                                .filter(|(_, &b)| b)
                                .map(|(t, _)| HeadArg::Term(t.clone()))
                                .collect(),
                        },
                        body: magic_prefix.clone(),
                    });
                    if seen.insert((a.pred.clone(), sub.clone())) {
                        queue.push((a.pred.clone(), sub.clone()));
                    }
                    new_body.push(Literal::Neg(Atom {
                        pred: adorned_name(&a.pred, &sub),
                        loc: a.loc,
                        args: a.args.clone(),
                    }));
                }
                Literal::Neg(a) => {
                    edb_used.insert(a.pred.clone());
                    new_body.push(lit.clone());
                }
                Literal::Assign(v, e) => {
                    let mut vs = BTreeSet::new();
                    e.vars(&mut vs);
                    if vs.iter().all(|x| demand_bound.contains(x)) {
                        magic_prefix.push(lit.clone());
                        demand_bound.insert(v.clone());
                    }
                    new_body.push(lit.clone());
                }
                Literal::Cmp(a, _, b) => {
                    let mut vs = BTreeSet::new();
                    a.vars(&mut vs);
                    b.vars(&mut vs);
                    if vs.iter().all(|x| demand_bound.contains(x)) {
                        magic_prefix.push(lit.clone());
                    }
                    new_body.push(lit.clone());
                }
            }
        }
        out.push(Rule {
            name: format!("{}@{msk}", r.name),
            head: Head {
                pred: adorned_name(&r.head.pred, m),
                loc: r.head.loc,
                args: r.head.args.clone(),
            },
            body: new_body,
        });
        Ok(())
    }

    /// Seed a scratch database from the feed, run the plan, read answers.
    #[allow(clippy::type_complexity)]
    fn execute(
        &self,
        plan: &QueryPlan,
        q: &Query,
        feed: &mut dyn FnMut(&str, &mut dyn FnMut(SharedTuple)),
    ) -> Result<QueryResult> {
        let seed_span = self.metrics.seed.start_timer();
        let mut db = IdDatabase::new();
        let mut seeded = 0usize;
        for (src, dst) in &plan.feeds {
            feed(src, &mut |t| {
                if db.insert(*dst, t) {
                    seeded += 1;
                }
            });
        }
        if let Some((magic, cols)) = &plan.magic_seed {
            let vals: Vec<Value> = cols
                .iter()
                .map(|&i| {
                    q.bindings()[i]
                        .clone()
                        .expect("mask-bound columns carry query values")
                })
                .collect();
            db.insert(*magic, SharedTuple::from(vals));
        }
        seed_span.stop();
        let ev_stats = {
            let _span = self.metrics.eval.start_timer();
            plan.ev.run(&mut db)?
        };
        let tuples: Vec<Tuple> = db
            .relation(plan.root)
            .filter(|t| q.matches(t))
            .map(SharedTuple::to_tuple)
            .collect();
        let stats = QueryStats {
            rewritten: plan.rewritten,
            iterations: ev_stats.iterations,
            derivations: ev_stats.derivations,
            demanded: ev_stats.new_tuples,
            seeded,
            answers: tuples.len(),
        };
        Ok(QueryResult { tuples, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_program;
    use crate::parse_program;
    use crate::programs;
    use crate::safety::analyze;

    fn addr(n: u32) -> Value {
        Value::Addr(n)
    }

    /// A feed over a program's ground facts (what a session's storage
    /// would report as externally supported).
    fn fact_feed(prog: &Program) -> impl FnMut(&str, &mut dyn FnMut(SharedTuple)) + '_ {
        move |pred: &str, sink: &mut dyn FnMut(SharedTuple)| {
            for f in prog.facts.iter().filter(|f| f.pred == pred) {
                sink(SharedTuple::from(f.const_tuple().expect("ground fact")));
            }
        }
    }

    fn engine_for(prog: &Program) -> QueryEngine {
        QueryEngine::new(&analyze(prog).unwrap(), EvalOptions::default())
    }

    fn oracle_filter(prog: &Program, q: &Query) -> Vec<Tuple> {
        eval_program(prog)
            .unwrap()
            .relation(q.pred())
            .filter(|t| q.matches(t))
            .cloned()
            .collect()
    }

    #[test]
    fn reachability_point_query_matches_oracle_and_demands_less() {
        let mut prog = programs::reachability();
        programs::add_directed_links(
            &mut prog,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (4, 5, 1), (5, 6, 1)],
        );
        let engine = engine_for(&prog);
        let q = Query::on("reachable").bind(addr(4)).free();
        let got = engine.query(&q, fact_feed(&prog)).unwrap();
        assert_eq!(got.tuples, oracle_filter(&prog, &q));
        assert!(got.stats.rewritten);
        // Full evaluation derives every pair in both components; demand
        // from n4 only explores its own component.
        let ev = Evaluator::new(&prog).unwrap();
        let mut full = ev.base_database(&prog);
        let full_stats = ev.run(&mut full).unwrap();
        assert!(
            got.stats.derivations < full_stats.derivations,
            "demanded {} vs full {}",
            got.stats.derivations,
            full_stats.derivations
        );
    }

    #[test]
    fn path_vector_best_path_point_query_matches_oracle() {
        let mut prog = programs::path_vector();
        programs::add_links(&mut prog, &[(0, 1, 1), (1, 2, 2), (0, 2, 9), (2, 3, 1)]);
        let engine = engine_for(&prog);
        for q in [
            Query::on("bestPath").bind(addr(0)).free().free().free(),
            Query::on("bestPath")
                .bind(addr(0))
                .bind(addr(3))
                .free()
                .free(),
            Query::on("bestPathCost").bind(addr(1)).bind(addr(3)).free(),
            // Bound aggregate output: post-filtered.
            Query::on("bestPathCost")
                .bind(addr(0))
                .bind(addr(2))
                .bind(Value::Int(3)),
            Query::scan("path", 4),
        ] {
            let got = engine.query(&q, fact_feed(&prog)).unwrap();
            assert_eq!(got.tuples, oracle_filter(&prog, &q), "query {q}");
        }
    }

    #[test]
    fn edb_fast_path_reads_the_feed_directly() {
        let mut prog = programs::reachability();
        programs::add_directed_links(&mut prog, &[(0, 1, 5), (1, 2, 7)]);
        let engine = engine_for(&prog);
        let q = Query::on("link").bind(addr(0)).free().free();
        let got = engine.query(&q, fact_feed(&prog)).unwrap();
        assert_eq!(got.tuples, vec![vec![addr(0), addr(1), Value::Int(5)]]);
        assert!(!got.stats.rewritten);
        assert_eq!(got.stats.derivations, 0);
    }

    #[test]
    fn negation_query_matches_oracle() {
        let prog = parse_program(
            "a reach(X,Y) :- edge(X,Y).
             b reach(X,Y) :- reach(X,Z), edge(Z,Y).
             c unreach(X,Y) :- node(X), node(Y), !reach(X,Y).
             node(1). node(2). node(3).
             edge(1,2).",
        )
        .unwrap();
        let engine = engine_for(&prog);
        for q in [
            Query::point("unreach", &[Value::Int(2), Value::Int(3)]),
            Query::on("unreach").bind(Value::Int(1)).free(),
            Query::scan("unreach", 2),
        ] {
            let got = engine.query(&q, fact_feed(&prog)).unwrap();
            assert_eq!(got.tuples, oracle_filter(&prog, &q), "query {q}");
        }
    }

    #[test]
    fn externally_asserted_idb_tuples_are_seeded() {
        // `reachable` is derived AND has an asserted ground fact; the
        // ext@reachable seed rule must surface it and close over it.
        let prog = parse_program(
            "r1 reachable(S,D) :- link(S,D,C).
             r2 reachable(S,D) :- link(S,Z,C), reachable(Z,D).
             link(0,1,1).
             reachable(1,7).",
        )
        .unwrap();
        let engine = engine_for(&prog);
        let q = Query::on("reachable").bind(Value::Int(0)).free();
        let got = engine.query(&q, fact_feed(&prog)).unwrap();
        assert_eq!(got.tuples, oracle_filter(&prog, &q));
        assert!(got.tuples.contains(&vec![Value::Int(0), Value::Int(7)]));
    }

    #[test]
    fn arity_mismatch_is_a_schema_error() {
        let mut prog = programs::reachability();
        programs::add_directed_links(&mut prog, &[(0, 1, 1)]);
        let engine = engine_for(&prog);
        let q = Query::on("reachable").bind(addr(0)); // arity 1, program has 2
        let err = engine.query(&q, fact_feed(&prog)).unwrap_err();
        assert!(matches!(err, NdlogError::Schema { .. }), "{err}");
    }

    #[test]
    fn plans_are_cached_per_shape_not_per_value() {
        let mut prog = programs::reachability();
        programs::add_directed_links(&mut prog, &[(0, 1, 1), (1, 2, 1)]);
        let engine = engine_for(&prog);
        for n in 0..3 {
            engine
                .query(
                    &Query::on("reachable").bind(addr(n)).free(),
                    fact_feed(&prog),
                )
                .unwrap();
        }
        assert_eq!(engine.cached_plans(), 1, "one plan per binding shape");
        engine
            .query(&Query::scan("reachable", 2), fact_feed(&prog))
            .unwrap();
        assert_eq!(engine.cached_plans(), 2);
    }

    #[test]
    fn query_display_and_matches() {
        let q = Query::on("bestPath")
            .bind(addr(0))
            .bind(addr(2))
            .free()
            .free();
        assert_eq!(q.to_string(), "bestPath(n0,n2,?,?)");
        assert!(q.matches(&[addr(0), addr(2), Value::List(vec![]), Value::Int(3)]));
        assert!(!q.matches(&[addr(1), addr(2), Value::List(vec![]), Value::Int(3)]));
        assert!(!q.matches(&[addr(0), addr(2), Value::Int(3)]));
    }
}
