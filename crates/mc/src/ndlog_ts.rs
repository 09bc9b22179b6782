//! NDlog programs as transition systems (arcs 6/8 of the paper's Figure 1).
//!
//! §4.3: *"Extending NDlog with linear logic ... would allow us to view the
//! declarative networking specification as a set of transition rules that
//! determine the updates of the underlying routing tables.  We can leverage
//! such transition system representation to directly interface with model
//! checkers."*
//!
//! [`NdlogTs`] realizes exactly that interface: a state is a database, a
//! transition is one rule firing deriving one new tuple (labelled with the
//! rule name).  Terminal states are fixpoints; invariants over reachable
//! databases are checkable with [`crate::ts::check_invariant`], covering
//! *every* evaluation order rather than the single order the evaluator picks.

use crate::ts::TransitionSystem;
use ndlog::ast::Program;
use ndlog::eval::{derive_rule_id, Database, Evaluator, IdDatabase};
use ndlog::incremental::{IncrementalEngine, RelDelta};
use ndlog::symbols::{RelId, Symbols};
use ndlog::update::{lower_updates, Session, Update};
use ndlog::value::display_tuple;
use ndlog::{NdlogError, Result, Rule};
use std::collections::BTreeSet;
use std::sync::Arc;

/// An NDlog program viewed as a (nondeterministic) transition system.
///
/// States are interned: an [`IdDatabase`] of dense [`RelId`]s and shared
/// tuples, mirroring [`ChurnTs`]'s engine states.  Exploration clones a
/// state per transition, so the interning (no `String` relation keys, no
/// deep tuple copies) multiplies across the whole explored space.
#[derive(Debug, Clone)]
pub struct NdlogTs {
    rules: Vec<Rule>,
    /// Head relation of each rule, resolved once (index-aligned with
    /// `rules`).
    heads: Vec<RelId>,
    symbols: Arc<Symbols>,
    start: FiringState,
}

/// A firing state: the interned database reached by some sequence of rule
/// firings (compared by database content).
#[derive(Debug, Clone)]
pub struct FiringState {
    db: IdDatabase,
    symbols: Arc<Symbols>,
}

impl FiringState {
    /// The database in this state, rendered name-keyed.
    pub fn database(&self) -> Database {
        self.db.to_named(&self.symbols)
    }

    /// Is the tuple visible in this state?
    pub fn contains(&self, pred: &str, tuple: &ndlog::value::Tuple) -> bool {
        self.symbols
            .lookup(pred)
            .is_some_and(|rel| self.db.contains(rel, tuple))
    }
}

// Comparison is by database content only; every state of one system shares
// the same symbol table.
impl PartialEq for FiringState {
    fn eq(&self, other: &Self) -> bool {
        self.db == other.db
    }
}
impl Eq for FiringState {}
impl PartialOrd for FiringState {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FiringState {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.db.cmp(&other.db)
    }
}

impl NdlogTs {
    /// Build the transition system.  Aggregates are rejected: their
    /// stratified semantics has no per-tuple firing order (the paper's
    /// linear-logic extension targets plain rules, and so do we).
    pub fn new(prog: &Program) -> Result<Self> {
        let ev = Evaluator::new(prog)?;
        let analysis = ev.analysis();
        for r in &analysis.rules {
            if r.head.has_agg() {
                return Err(NdlogError::Eval {
                    msg: format!(
                        "rule {} has an aggregate head; NdlogTs covers plain rules only",
                        r.name
                    ),
                });
            }
        }
        let symbols = Arc::new(analysis.symbols.clone());
        let heads = analysis
            .rules
            .iter()
            .map(|r| {
                symbols
                    .lookup(&r.head.pred)
                    .expect("program predicates are interned at analysis")
            })
            .collect();
        // The start database is interned once; successors then clone and
        // insert shared tuples only.  Pre-sizing keeps content-equal states
        // structurally equal regardless of which relation fired first.
        let mut db = ev.base_database(prog);
        db.reserve_rels(symbols.len());
        Ok(NdlogTs {
            rules: analysis.rules.clone(),
            heads,
            symbols: symbols.clone(),
            start: FiringState { db, symbols },
        })
    }
}

impl TransitionSystem for NdlogTs {
    type State = FiringState;

    fn initial(&self) -> Vec<FiringState> {
        vec![self.start.clone()]
    }

    fn successors(&self, s: &FiringState) -> Vec<(String, FiringState)> {
        let mut out = Vec::new();
        for (rule, &head) in self.rules.iter().zip(&self.heads) {
            if let Ok(tuples) = derive_rule_id(rule, &s.db, &self.symbols) {
                for t in tuples {
                    if !s.db.contains(head, &t) {
                        let mut next = s.clone();
                        // Single-pass lazy rendering: the label string is
                        // built once, with no per-value intermediates.
                        let label = format!("{}{}", rule.name, display_tuple(&t));
                        next.db.insert(head, t);
                        out.push((label, next));
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Delta transitions: verified programs stay verified under churn.
// ---------------------------------------------------------------------

/// An NDlog program under topology churn, as a transition system.
///
/// A state is the *maintained* database of an [`IncrementalEngine`] plus the
/// set of churn batches already applied; the schedule is a stream of typed
/// [`Update`]s — the same vocabulary the sessions and the distributed
/// runtime consume — and a transition applies one pending batch (a link
/// failure, a recovery, a metric change) through incremental maintenance.
/// Exploration therefore covers **every interleaving** of the churn events —
/// the continuous-verification story: an invariant checked with
/// [`crate::ts::check_invariant`] holds not just for the final topology but
/// along every maintenance order reaching it.  [`ChurnTs::windows`]
/// additionally groups a timed stream into batch windows, so the checker
/// explores exactly the batched interleavings the windowed runtime executes.
#[derive(Debug, Clone)]
pub struct ChurnTs {
    start: IncrementalEngine,
    /// The schedule, interned once against the start engine's symbol table:
    /// every clone-and-apply transition during exploration replays shared
    /// [`RelDelta`]s instead of re-interning names and re-copying tuples.
    deltas: Vec<(String, Vec<RelDelta>)>,
    /// First maintenance error seen during exploration (evaluation bounds
    /// or a data-dependent evaluation failure): that interleaving was
    /// pruned, so a verdict over the explored space is **incomplete** —
    /// check [`Self::truncated`] / [`Self::prune_error`].  Sticky across
    /// explorations of the same instance.
    prune_error: std::cell::RefCell<Option<String>>,
}

/// A churn state: which delta batches were applied, and the maintained
/// engine (compared by canonical database state).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChurnState {
    /// Indices (into the schedule) of the batches applied so far.
    pub applied: BTreeSet<usize>,
    engine: IncrementalEngine,
}

impl ChurnState {
    /// The maintained database in this state.
    pub fn database(&self) -> Database {
        self.engine.database()
    }

    /// Is the tuple visible in this state?
    pub fn contains(&self, pred: &str, tuple: &ndlog::value::Tuple) -> bool {
        self.engine.contains(pred, tuple)
    }
}

impl ChurnTs {
    /// Build the system: evaluate `prog` to its initial fixpoint and record
    /// the labelled churn schedule, a stream of typed [`Update`] batches.
    /// Aggregates are allowed — incremental maintenance covers them (unlike
    /// [`NdlogTs`], which enumerates per-tuple firings).
    ///
    /// [`Update::Expire`] entries lower to their retraction directly: the
    /// checker explores *orderings*, so a deadline is just one more
    /// position in the interleaving (use [`ChurnTs::windows`] to group a
    /// timed stream the way a windowed session would).
    pub fn new(prog: &Program, updates: Vec<(String, Vec<Update>)>) -> Result<Self> {
        Self::with_options(prog, updates, ndlog::EvalOptions::default())
    }

    /// Like [`new`](Self::new) with custom evaluation bounds.
    pub fn with_options(
        prog: &Program,
        updates: Vec<(String, Vec<Update>)>,
        opts: ndlog::EvalOptions,
    ) -> Result<Self> {
        // The engine comes out of the unified churn API (the session owns
        // program compilation); exploration then clones it per state.
        let session = Session::open(prog).eval_options(opts).build()?;
        let mut start = session
            .engine()
            .expect("incremental backend always has an engine")
            .clone();
        // Compile the schedule once: exploration applies each batch along
        // every interleaving, so per-transition name lookups would multiply
        // with the state count.  Predicates the program never mentions are
        // interned here (they stay empty relations).
        let deltas = updates
            .into_iter()
            .map(|(label, batch)| {
                let batch = lower_updates(&batch, |p| start.rel_id(p));
                (label, batch)
            })
            .collect();
        Ok(ChurnTs {
            start,
            deltas,
            prune_error: std::cell::RefCell::new(None),
        })
    }

    /// Build the system from a **timed** update stream grouped into batch
    /// windows: updates whose ticks fall into the same `window`-sized
    /// window form one labelled batch (`w<i>@<start-tick>`), exactly the
    /// merged batches a session or runtime node with that batch window
    /// would maintain.  The checker then explores the *batched*
    /// interleavings — the state space the windowed deployment actually
    /// has.  A `window` of 0 gives every update its own batch.
    pub fn windows(prog: &Program, timed: Vec<(u64, Update)>, window: u64) -> Result<Self> {
        // Group by window index; each group remembers its window's start
        // tick (the update's own tick when window is 0) so batch labels
        // name real schedule times, not enumeration indexes.
        let mut grouped: std::collections::BTreeMap<u64, (u64, Vec<Update>)> =
            std::collections::BTreeMap::new();
        for (i, (at, u)) in timed.into_iter().enumerate() {
            // `checked_div` doubles as the per-update (window 0) guard.
            let key = at.checked_div(window).unwrap_or(i as u64);
            let start = at.checked_div(window).map_or(at, |w| w * window);
            grouped
                .entry(key)
                .or_insert_with(|| (start, Vec::new()))
                .1
                .push(u);
        }
        let updates = grouped
            .into_values()
            .enumerate()
            .map(|(i, (start, batch))| (format!("w{i}@{start}"), batch))
            .collect();
        Self::new(prog, updates)
    }

    /// True if any interleaving was pruned because its maintenance batch
    /// errored — a passing invariant check is then a verdict over an
    /// *incomplete* state space.  Sticky for the lifetime of this instance.
    pub fn truncated(&self) -> bool {
        self.prune_error.borrow().is_some()
    }

    /// The first pruned interleaving's label and error, if any — shows
    /// whether pruning was a bounds limit or a genuine evaluation failure
    /// (division by zero, unbound variable) a delta exposed.
    pub fn prune_error(&self) -> Option<String> {
        self.prune_error.borrow().clone()
    }
}

impl TransitionSystem for ChurnTs {
    type State = ChurnState;

    fn initial(&self) -> Vec<ChurnState> {
        vec![ChurnState {
            applied: BTreeSet::new(),
            engine: self.start.clone(),
        }]
    }

    fn successors(&self, s: &ChurnState) -> Vec<(String, ChurnState)> {
        let mut out = Vec::new();
        for (i, (label, batch)) in self.deltas.iter().enumerate() {
            if s.applied.contains(&i) {
                continue;
            }
            let mut engine = s.engine.clone();
            if let Err(e) = engine.apply_interned(batch) {
                // Pruned branch: surfaced through truncated()/prune_error()
                // so a passing check is never silently incomplete.
                self.prune_error
                    .borrow_mut()
                    .get_or_insert_with(|| format!("{label}: {e}"));
                continue;
            }
            let mut applied = s.applied.clone();
            applied.insert(i);
            out.push((label.clone(), ChurnState { applied, engine }));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Fault transitions: verified programs stay verified under node faults.
// ---------------------------------------------------------------------

/// One fault-campaign event over a symmetric topology.
///
/// The model is the *observable* fault vocabulary of the distributed
/// runtime's reliable-delivery layer (`ndlog_runtime::engine`): message
/// **loss** is a delayed delivery (the checker already covers every
/// delivery order as an interleaving), message **duplication** is absorbed
/// by the sequence space (explored as explicit re-delivery self-loops, see
/// [`FaultTs`]), and **crash/restart** retracts and re-asserts every link
/// fact incident to the node — exactly the purge-and-re-ship a crashed
/// node's neighbors perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// The symmetric link between two nodes fails.
    LinkDown(u32, u32),
    /// The symmetric link between two nodes recovers.
    LinkUp(u32, u32),
    /// The node crashes: every incident link fact vanishes.
    Crash(u32),
    /// The node restarts: incident links to live neighbors (that are not
    /// administratively down) come back.
    Restart(u32),
}

/// An NDlog program under a **fault campaign** — link flaps plus node
/// crash/restart — as a transition system.
///
/// A state is the maintained database of an [`IncrementalEngine`] together
/// with the fault configuration (which links are administratively down,
/// which nodes are dead) and the set of campaign events already delivered.
/// A transition delivers one pending event whose precondition holds (a
/// node can only crash while alive, restart while dead, a link can only
/// fail while up, recover while down); its effect is the *difference*
/// between the old and new effective link sets — an edge is effective iff
/// it is administratively up **and** both endpoints are alive — applied
/// through incremental maintenance as symmetric link updates.
///
/// Exploration therefore covers every interleaving of drops (a lost
/// delivery is a later delivery), duplicates (re-delivering an event whose
/// effect already holds is an explicit `dup`-labelled self-loop with an
/// empty delta — the model-level image of the runtime's seq-space
/// suppression), and crash/restart faults; an invariant checked with
/// [`crate::ts::check_invariant`] (e.g. §2.2 loop freedom, §3.1
/// `bestPathStrong`) holds in every reachable fault configuration, not
/// just the final one.
#[derive(Debug, Clone)]
pub struct FaultTs {
    start: IncrementalEngine,
    edges: Vec<(u32, u32, i64)>,
    events: Vec<(String, FaultOp)>,
    /// First pruned interleaving (maintenance error), as in [`ChurnTs`].
    prune_error: std::cell::RefCell<Option<String>>,
}

/// A fault-campaign state: delivered events, fault configuration, and the
/// maintained engine (compared by canonical database state).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultState {
    /// Indices (into the campaign) of the events delivered so far.
    pub applied: BTreeSet<usize>,
    /// Administratively-down links, endpoint-sorted.
    pub down: BTreeSet<(u32, u32)>,
    /// Crashed-and-not-restarted nodes.
    pub dead: BTreeSet<u32>,
    engine: IncrementalEngine,
}

impl FaultState {
    /// The maintained database in this state.
    pub fn database(&self) -> Database {
        self.engine.database()
    }

    /// Is the tuple visible in this state?
    pub fn contains(&self, pred: &str, tuple: &ndlog::value::Tuple) -> bool {
        self.engine.contains(pred, tuple)
    }
}

fn norm_edge(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

impl FaultTs {
    /// Build the system: evaluate `prog` (which must already carry the
    /// symmetric `link` facts for `edges`, e.g. via
    /// `ndlog::programs::add_links`) to its initial fixpoint and record the
    /// campaign.  All links start up and all nodes start alive.
    pub fn new(
        prog: &Program,
        edges: &[(u32, u32, i64)],
        events: Vec<(String, FaultOp)>,
    ) -> Result<Self> {
        let session = Session::open(prog).build()?;
        let start = session
            .engine()
            .expect("incremental backend always has an engine")
            .clone();
        Ok(FaultTs {
            start,
            edges: edges.to_vec(),
            events,
            prune_error: std::cell::RefCell::new(None),
        })
    }

    /// The effective edge set of a fault configuration: administratively up
    /// with both endpoints alive.
    fn live_edges(
        &self,
        down: &BTreeSet<(u32, u32)>,
        dead: &BTreeSet<u32>,
    ) -> BTreeSet<(u32, u32, i64)> {
        self.edges
            .iter()
            .filter(|(a, b, _)| {
                !down.contains(&norm_edge(*a, *b)) && !dead.contains(a) && !dead.contains(b)
            })
            .copied()
            .collect()
    }

    /// True if any interleaving was pruned because its maintenance batch
    /// errored (see [`ChurnTs::truncated`]).
    pub fn truncated(&self) -> bool {
        self.prune_error.borrow().is_some()
    }

    /// The first pruned interleaving's label and error, if any.
    pub fn prune_error(&self) -> Option<String> {
        self.prune_error.borrow().clone()
    }
}

impl TransitionSystem for FaultTs {
    type State = FaultState;

    fn initial(&self) -> Vec<FaultState> {
        vec![FaultState {
            applied: BTreeSet::new(),
            down: BTreeSet::new(),
            dead: BTreeSet::new(),
            engine: self.start.clone(),
        }]
    }

    fn successors(&self, s: &FaultState) -> Vec<(String, FaultState)> {
        let mut out = Vec::new();
        for (i, (label, op)) in self.events.iter().enumerate() {
            if s.applied.contains(&i) {
                // Duplicate delivery of a link event whose effect already
                // holds: the runtime's seq space suppresses it; the model
                // shows it as an empty-delta self-loop.
                let absorbed = match *op {
                    FaultOp::LinkDown(a, b) => s.down.contains(&norm_edge(a, b)),
                    FaultOp::LinkUp(a, b) => !s.down.contains(&norm_edge(a, b)),
                    _ => false, // crashes are faults, not messages
                };
                if absorbed {
                    out.push((format!("dup {label}"), s.clone()));
                }
                continue;
            }
            let mut down = s.down.clone();
            let mut dead = s.dead.clone();
            // Precondition = the mutation actually changes the fault
            // configuration; an event whose precondition fails stays
            // pending (it may become deliverable after another event).
            let enabled = match *op {
                FaultOp::LinkDown(a, b) => down.insert(norm_edge(a, b)),
                FaultOp::LinkUp(a, b) => down.remove(&norm_edge(a, b)),
                FaultOp::Crash(v) => dead.insert(v),
                FaultOp::Restart(v) => dead.remove(&v),
            };
            if !enabled {
                continue;
            }
            let before = self.live_edges(&s.down, &s.dead);
            let after = self.live_edges(&down, &dead);
            let mut updates = Vec::new();
            for &(a, b, c) in before.difference(&after) {
                updates.push(Update::link_down(a, b, c));
            }
            for &(a, b, c) in after.difference(&before) {
                updates.push(Update::link_up(a, b, c));
            }
            let mut engine = s.engine.clone();
            let batch = lower_updates(&updates, |p| engine.rel_id(p));
            if let Err(e) = engine.apply_interned(&batch) {
                self.prune_error
                    .borrow_mut()
                    .get_or_insert_with(|| format!("{label}: {e}"));
                continue;
            }
            let mut applied = s.applied.clone();
            applied.insert(i);
            out.push((
                label.clone(),
                FaultState {
                    applied,
                    down,
                    dead,
                    engine,
                },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ts::{check_invariant, explore, stable_states, ExploreOptions};
    use ndlog::parse_program;
    use ndlog::Value;

    fn reach_prog() -> Program {
        parse_program(
            "r1 reach(@S,D) :- link(@S,D,C).
             r2 reach(@S,D) :- link(@S,Z,C), reach(@Z,D).
             link(@#0,#1,1). link(@#1,#2,1).",
        )
        .unwrap()
    }

    #[test]
    fn fixpoints_match_centralized_evaluation() {
        let prog = reach_prog();
        let ts = NdlogTs::new(&prog).unwrap();
        let stable = stable_states(&ts, ExploreOptions::default());
        // All fixpoints of a positive Datalog program coincide with the
        // least model restricted to reachable states from the base facts.
        assert_eq!(stable.len(), 1, "confluence: unique fixpoint");
        let central = ndlog::eval_program(&prog).unwrap();
        assert_eq!(stable[0].database(), central);
    }

    #[test]
    fn every_run_order_is_covered() {
        let prog = reach_prog();
        let ts = NdlogTs::new(&prog).unwrap();
        let ex = explore(&ts, ExploreOptions::default());
        // 3 derivable tuples -> several interleavings but one fixpoint.
        assert!(ex.states.len() > 3);
        assert!(!ex.truncated);
    }

    #[test]
    fn invariants_hold_across_all_orders() {
        let prog = reach_prog();
        let ts = NdlogTs::new(&prog).unwrap();
        // Invariant: reach never contains a self-loop (no link is reflexive).
        let visited = check_invariant(&ts, ExploreOptions::default(), |s| {
            s.database().relation("reach").all(|t| t[0] != t[1])
        })
        .unwrap();
        assert!(visited > 1);
    }

    #[test]
    fn violated_invariant_names_the_firing() {
        let prog = reach_prog();
        let ts = NdlogTs::new(&prog).unwrap();
        // Claim (false): reach never derives (0 -> 2).
        let err = check_invariant(&ts, ExploreOptions::default(), |s| {
            !s.contains("reach", &vec![Value::Addr(0), Value::Addr(2)])
        })
        .unwrap_err();
        assert!(err.labels.last().unwrap().starts_with("r2"));
    }

    #[test]
    fn aggregates_are_rejected() {
        let prog = parse_program(
            "r1 best(@S, min<C>) :- link(@S,D,C).
             link(@#0,#1,1).",
        )
        .unwrap();
        assert!(NdlogTs::new(&prog).is_err());
    }

    // ------------------------------------------------------------------
    // churn transitions
    // ------------------------------------------------------------------

    fn link(a: u32, b: u32, c: i64) -> ndlog::value::Tuple {
        vec![Value::Addr(a), Value::Addr(b), Value::Int(c)]
    }

    /// Line 0-1-2 with a failing and a recovering link.  The program's
    /// `link` facts are directed, so the schedule uses the raw
    /// assert/retract updates rather than the symmetric link variants.
    fn churn_system() -> ChurnTs {
        let prog = reach_prog();
        ChurnTs::new(
            &prog,
            vec![
                (
                    "fail01".into(),
                    vec![Update::retract("link", link(0, 1, 1))],
                ),
                ("add02".into(), vec![Update::assert("link", link(0, 2, 1))]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn churn_interleavings_are_confluent() {
        let ts = churn_system();
        let ex = explore(&ts, ExploreOptions::default());
        assert!(!ex.truncated);
        // Both orders of the two events are explored: 1 initial + 2
        // intermediate + final state(s).
        assert!(ex.states.len() >= 4, "states: {}", ex.states.len());
        // All fully-applied states coincide, and match from-scratch
        // evaluation of the final fact set.
        let finals: Vec<_> = ex.states.iter().filter(|s| s.applied.len() == 2).collect();
        assert!(!finals.is_empty());
        let want = ndlog::eval_program(
            &parse_program(
                "r1 reach(@S,D) :- link(@S,D,C).
                 r2 reach(@S,D) :- link(@S,Z,C), reach(@Z,D).
                 link(@#1,#2,1). link(@#0,#2,1).",
            )
            .unwrap(),
        )
        .unwrap();
        for f in finals {
            assert_eq!(f.database(), want, "confluence under churn orderings");
        }
    }

    #[test]
    fn invariant_holds_across_all_churn_orders() {
        let ts = churn_system();
        // reach never derives a self-loop, in any churn interleaving.
        let visited = check_invariant(&ts, ExploreOptions::default(), |s| {
            s.database().relation("reach").all(|t| t[0] != t[1])
        })
        .unwrap();
        assert!(visited >= 4);
    }

    #[test]
    fn churn_counterexample_names_the_delta() {
        let ts = churn_system();
        // Claim (false): node 0 always keeps a route to 1.
        let err = check_invariant(&ts, ExploreOptions::default(), |s| {
            s.contains("reach", &vec![Value::Addr(0), Value::Addr(1)])
        })
        .unwrap_err();
        assert_eq!(err.labels, vec!["fail01".to_string()]);
    }

    #[test]
    fn churn_pruned_interleavings_are_surfaced() {
        // A delta that makes maintenance diverge: the branch is pruned and
        // the incompleteness reported, instead of silently certifying.
        let prog = parse_program("a q(N) :- q(M), N = M + 1.").unwrap();
        let ts = ChurnTs::with_options(
            &prog,
            vec![(
                "seed".into(),
                vec![Update::assert("q", vec![Value::Int(0)])],
            )],
            ndlog::EvalOptions {
                max_iterations: 40,
                max_tuples: 1_000_000,
            },
        )
        .unwrap();
        assert!(!ts.truncated());
        let visited = check_invariant(&ts, ExploreOptions::default(), |_| true).unwrap();
        assert_eq!(visited, 1, "only the initial state is reachable");
        assert!(ts.truncated(), "the divergent branch must be reported");
        let why = ts.prune_error().unwrap();
        assert!(why.starts_with("seed:"), "error names the delta: {why}");
        // A well-behaved schedule stays complete.
        let ok = churn_system();
        explore(&ok, ExploreOptions::default());
        assert!(!ok.truncated());
    }

    /// A timed stream grouped into batch windows explores the *batched*
    /// interleavings: events inside one window form a single transition, so
    /// the state space shrinks but every final state still matches the
    /// unbatched fixpoint.
    #[test]
    fn windowed_stream_explores_batched_interleavings() {
        let mut prog = ndlog::programs::path_vector();
        ndlog::programs::add_links(&mut prog, &[(0, 1, 1), (1, 2, 2), (0, 2, 9)]);
        let timed = vec![
            (3u64, Update::link_down(0, 1, 1)),
            (5, Update::metric_change(0, 2, 9, 4)),
            (14, Update::link_up(0, 1, 1)),
        ];
        // Window 8: the first two events share window w0, the third is w1.
        let batched = ChurnTs::windows(&prog, timed.clone(), 8).unwrap();
        let unbatched = ChurnTs::windows(&prog, timed, 0).unwrap();
        let eb = explore(&batched, ExploreOptions::default());
        let eu = explore(&unbatched, ExploreOptions::default());
        assert!(!batched.truncated() && !unbatched.truncated());
        assert!(
            eb.states.len() < eu.states.len(),
            "batching must shrink the interleaving space ({} vs {})",
            eb.states.len(),
            eu.states.len()
        );
        let final_of = |ex: &crate::ts::Exploration<ChurnState>, n: usize| -> Vec<Database> {
            ex.states
                .iter()
                .filter(|s| s.applied.len() == n)
                .map(|s| s.database())
                .collect()
        };
        let fb = final_of(&eb, 2);
        let fu = final_of(&eu, 3);
        assert!(!fb.is_empty() && !fu.is_empty());
        for db in fb.iter().chain(fu.iter()) {
            assert_eq!(db, &fb[0], "all drained states agree across windows");
        }
    }

    #[test]
    fn churn_supports_aggregates() {
        let mut prog = ndlog::programs::path_vector();
        ndlog::programs::add_links(&mut prog, &[(0, 1, 1), (1, 2, 2), (0, 2, 9)]);
        let ts = ChurnTs::new(
            &prog,
            vec![("fail01".into(), vec![Update::link_down(0, 1, 1)])],
        )
        .unwrap();
        // Best cost 0->2 is 3 before the failure and 9 after, in all states.
        let visited = check_invariant(&ts, ExploreOptions::default(), |s| {
            let failed = !s.applied.is_empty();
            let want = if failed { 9 } else { 3 };
            s.contains(
                "bestPathCost",
                &vec![Value::Addr(0), Value::Addr(2), Value::Int(want)],
            )
        })
        .unwrap();
        assert_eq!(visited, 2);
    }

    // ------------------------------------------------------------------
    // fault transitions
    // ------------------------------------------------------------------

    /// Triangle 0-1-2: the cheap route 0->2 goes through 1 (cost 2), the
    /// direct link is the fallback (cost 5).
    fn fault_system(events: Vec<(String, FaultOp)>) -> FaultTs {
        let edges = [(0, 1, 1), (1, 2, 1), (0, 2, 5)];
        let mut prog = ndlog::programs::path_vector();
        ndlog::programs::add_links(&mut prog, &edges);
        FaultTs::new(&prog, &edges, events).unwrap()
    }

    fn best(a: u32, b: u32, c: i64) -> ndlog::value::Tuple {
        vec![Value::Addr(a), Value::Addr(b), Value::Int(c)]
    }

    #[test]
    fn crash_and_restart_round_trip_to_the_start_fixpoint() {
        let ts = fault_system(vec![
            ("crash 1".into(), FaultOp::Crash(1)),
            ("restart 1".into(), FaultOp::Restart(1)),
        ]);
        let ex = explore(&ts, ExploreOptions::default());
        assert!(!ex.truncated && !ts.truncated());
        // The restart is gated on its crash, so the campaign is a line:
        // start -> crashed -> recovered.
        assert_eq!(ex.states.len(), 3);
        let start = ts.initial().pop().unwrap().database();
        for s in &ex.states {
            match s.applied.len() {
                1 => {
                    // With 1 dead, only the direct 0-2 link survives.
                    assert!(s.dead.contains(&1));
                    assert!(s.contains("bestPathCost", &best(0, 2, 5)));
                    assert!(!s.contains("bestPathCost", &best(0, 1, 1)));
                }
                _ => assert_eq!(s.database(), start, "round trip restores the fixpoint"),
            }
        }
    }

    #[test]
    fn duplicate_link_deliveries_are_absorbed() {
        let ts = fault_system(vec![
            ("down 0-1".into(), FaultOp::LinkDown(0, 1)),
            ("up 0-1".into(), FaultOp::LinkUp(0, 1)),
        ]);
        let ex = explore(&ts, ExploreOptions::default());
        assert_eq!(ex.states.len(), 3, "dup self-loops add no states");
        // Mid-campaign, re-delivering the down is an empty-delta self-loop
        // next to the real recovery transition.
        let mid = ex.states.iter().find(|s| s.applied.len() == 1).unwrap();
        let succ = ts.successors(mid);
        assert_eq!(succ.len(), 2);
        let dup = succ.iter().find(|(l, _)| l == "dup down 0-1").unwrap();
        assert_eq!(&dup.1, mid, "duplicates are observationally no-ops");
        // Fully drained, only the stale up can be re-delivered.
        let end = ex.states.iter().find(|s| s.applied.len() == 2).unwrap();
        let succ = ts.successors(end);
        assert_eq!(succ.len(), 1);
        assert_eq!(succ[0].0, "dup up 0-1");
        assert_eq!(&succ[0].1, end);
    }

    #[test]
    fn overlapping_faults_stay_consistent_in_every_interleaving() {
        // A crash that overlaps an administrative link failure: the
        // effective-edge diff must not retract the shared link twice, in
        // any delivery order.
        let ts = fault_system(vec![
            ("down 0-1".into(), FaultOp::LinkDown(0, 1)),
            ("crash 0".into(), FaultOp::Crash(0)),
            ("restart 0".into(), FaultOp::Restart(0)),
            ("up 0-1".into(), FaultOp::LinkUp(0, 1)),
        ]);
        // Loop freedom holds in every reachable fault configuration.
        let visited = check_invariant(&ts, ExploreOptions::default(), |s| {
            s.database().relation("path").all(|t| {
                let hops = t[2].as_list().expect("path component is a list");
                let mut seen = BTreeSet::new();
                hops.iter().all(|h| seen.insert(h.clone()))
            })
        })
        .unwrap();
        assert!(!ts.truncated(), "{:?}", ts.prune_error());
        assert!(visited >= 6, "visited: {visited}");
        // Every fully-drained interleaving returns to the start fixpoint.
        let ex = explore(&ts, ExploreOptions::default());
        let start = ts.initial().pop().unwrap().database();
        let drained: Vec<_> = ex.states.iter().filter(|s| s.applied.len() == 4).collect();
        assert!(!drained.is_empty());
        for s in drained {
            assert_eq!(s.database(), start);
        }
    }
}
