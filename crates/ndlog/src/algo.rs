//! Native graph-algorithm operators for recursive strata.
//!
//! Reachability and shortest-path fixpoints dominate every workload in
//! this reproduction (bestPath, loop-freedom checks, EXP-9/10/16 all
//! bottom out in the same recursive strata), yet semi-naive iteration
//! computes them with general join machinery.  This module provides the
//! native-operator layer the ROADMAP asks for, in the style of Cozo's
//! `AlgoImpl`: a pluggable [`AlgoOp`] trait over [`RelationStorage`]
//! snapshots plus concrete operators for BFS reachability
//! ([`BfsReachability`]) and cost-ordered simple-path enumeration
//! ([`DijkstraPaths`]).
//!
//! The contract that makes native execution *maintenance-safe* is that an
//! operator does not just produce the right tuple **set** — it produces
//! the exact semi-naive **firing count** for every output tuple, so the
//! engine can install the results into the support map exactly as
//! rule-derived tuples would land there: as the signed derived counts
//! z-set maintenance in [`crate::incremental`] keeps and resumes from.
//! Everything downstream — incremental maintenance, `Session::explain`,
//! byte-identical database comparison (which includes support maps via
//! `RelationStorage::cmp`) — then works unchanged.
//!
//! [`recognize`] is the soundness gate: it pattern-matches a program's
//! recursive strata against two *proven* shapes (linear transitive
//! closure and the paper's §2.2 path-vector recursion) and emits a
//! [`NativeShape`] only for an exact structural match.  Anything it
//! cannot prove equivalent falls back to the general semi-naive engine.
//! See DESIGN.md §14 for the equivalence arguments.

use crate::ast::{BinOp, CmpOp, Expr, Literal, Rule, Term};
use crate::error::{NdlogError, Result};
use crate::storage::RelationStorage;
use crate::symbols::{RelId, Symbols};
use crate::value::{SharedTuple, Value};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Extracts the `(source, dest)` pair an edge tuple carries under a shape's
/// [`EdgePattern`], or `None` when the tuple does not bind the pattern.
type PairExtract<'a> = &'a dyn Fn(&[Value]) -> Option<(Value, Value)>;

/// A native operator over a relation-storage snapshot.
///
/// `run` reads the *visible* input relations and returns every output
/// tuple together with its exact rule-firing count — the number of
/// distinct semi-naive firings that would derive the tuple in the final
/// fixpoint of the stratum the operator replaces.  The engine owns
/// installing those counts into the support map; operators never mutate
/// storage.
pub trait AlgoOp {
    /// Operator name (for telemetry, plan snapshots and diagnostics).
    fn name(&self) -> &'static str;
    /// Input relations read by `run`.
    fn inputs(&self) -> Vec<RelId>;
    /// The relation this operator materializes.
    fn output(&self) -> RelId;
    /// Compute the full output with per-tuple firing counts.
    fn run(&self, store: &RelationStorage) -> Result<Vec<(SharedTuple, i64)>>;
}

/// How an edge relation is read by a recognized shape: which columns carry
/// the pair, which must equal constants, with every remaining column an
/// independent existential variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgePattern {
    /// The edge relation.
    pub rel: RelId,
    /// Column bound to the pair's first coordinate.
    pub src: usize,
    /// Column bound to the pair's second coordinate.
    pub dst: usize,
    /// Columns pinned to constants by the rule body.
    pub consts: Vec<(usize, Value)>,
}

impl EdgePattern {
    /// Project a stored edge tuple to its `(src, dst)` pair, or `None` if
    /// a constant column does not match.
    fn pair<'a>(&self, t: &'a [Value]) -> Option<(&'a Value, &'a Value)> {
        for (i, c) in &self.consts {
            if t.get(*i) != Some(c) {
                return None;
            }
        }
        Some((&t[self.src], &t[self.dst]))
    }
}

/// A recognized linear transitive closure: one base rule `h(X,Y) :- b(..)`
/// and one linear recursive rule (`h(X,Y) :- e(..), h(Z,Y)` right-linear,
/// or `h(X,Y) :- h(X,Z), e(..)` left-linear), nothing else deriving `h`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcSpec {
    /// The closed relation (arity 2).
    pub head: RelId,
    /// Edge pattern of the non-recursive base rule.
    pub base: EdgePattern,
    /// Edge pattern of the recursive rule's edge atom.
    pub step: EdgePattern,
    /// True for `h(X,Y) :- h(X,Z), e(Z,Y)`; false for the right-linear
    /// form.  Internally the left-linear closure is computed as the
    /// right-linear closure of the transposed graph.
    pub left_linear: bool,
    /// Name of the base rule (plan-attachment cross-check).
    pub base_rule: String,
    /// Name of the recursive rule.
    pub rec_rule: String,
}

impl TcSpec {
    /// `(src, dst)` of a base-edge tuple in *pair space* (transposed for
    /// left-linear closures so one core computes both).
    fn base_pair<'a>(&self, t: &'a [Value]) -> Option<(&'a Value, &'a Value)> {
        let (a, b) = self.base.pair(t)?;
        Some(if self.left_linear { (b, a) } else { (a, b) })
    }

    /// `(src, dst)` of a step-edge tuple in pair space.
    fn step_pair<'a>(&self, t: &'a [Value]) -> Option<(&'a Value, &'a Value)> {
        let (a, b) = self.step.pair(t)?;
        Some(if self.left_linear { (b, a) } else { (a, b) })
    }

    /// A head tuple's pair-space source coordinate (the coordinate whose
    /// row a scoped re-run recomputes).
    pub fn head_src<'a>(&self, t: &'a [Value]) -> &'a Value {
        if self.left_linear {
            &t[1]
        } else {
            &t[0]
        }
    }

    /// Build the head tuple for a pair-space `(src, dst)` pair.
    fn head_tuple(&self, src: &Value, dst: &Value) -> SharedTuple {
        let t: Vec<Value> = if self.left_linear {
            vec![dst.clone(), src.clone()]
        } else {
            vec![src.clone(), dst.clone()]
        };
        t.into()
    }
}

/// A recognized §2.2 path-vector recursion: the exact two-rule shape
/// `path(S,D,P,C) :- link(S,D,C), P=f_init(S,D)` and
/// `path(S,D,P,C) :- link(S,Z,C1), path(Z,D,P2,C2), C=C1+C2,
/// P=f_concatPath(S,P2), f_inPath(P2,S)=false`, modulo renaming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvSpec {
    /// The path relation (arity 4: src, dst, path vector, cost).
    pub head: RelId,
    /// The link relation (arity 3: src, dst, cost).
    pub edge: RelId,
    /// Name of the base rule.
    pub base_rule: String,
    /// Name of the recursive rule.
    pub rec_rule: String,
}

/// A recursive stratum the recognizer proved equivalent to a native
/// operator, as recorded on [`crate::safety::Analysis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NativeShape {
    /// Linear transitive closure — executed by [`BfsReachability`].
    LinearTc(TcSpec),
    /// Path-vector simple-path recursion — executed by [`DijkstraPaths`].
    PathVector(PvSpec),
}

impl NativeShape {
    /// The relation the native plan materializes.
    pub fn head(&self) -> RelId {
        match self {
            NativeShape::LinearTc(s) => s.head,
            NativeShape::PathVector(s) => s.head,
        }
    }

    /// The two rule names the plan replaces (base, recursive).
    pub fn rule_names(&self) -> (&str, &str) {
        match self {
            NativeShape::LinearTc(s) => (&s.base_rule, &s.rec_rule),
            NativeShape::PathVector(s) => (&s.base_rule, &s.rec_rule),
        }
    }

    /// The operator that executes this shape.
    pub fn op_name(&self) -> &'static str {
        match self {
            NativeShape::LinearTc(_) => "bfs_reachability",
            NativeShape::PathVector(_) => "dijkstra_paths",
        }
    }

    /// One-line description for plan snapshots (`tests/golden`).
    pub fn describe(&self, symbols: &Symbols) -> String {
        let name = |r: RelId| symbols.name(r).to_string();
        match self {
            NativeShape::LinearTc(s) => format!(
                "{} <- native {} ({} linear closure of {} over {}; rules {}+{})",
                name(s.head),
                self.op_name(),
                if s.left_linear { "left" } else { "right" },
                name(s.base.rel),
                name(s.step.rel),
                s.base_rule,
                s.rec_rule,
            ),
            NativeShape::PathVector(s) => format!(
                "{} <- native {} (simple-path enumeration over {}; rules {}+{})",
                name(s.head),
                self.op_name(),
                name(s.edge),
                s.base_rule,
                s.rec_rule,
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Recognizer
// ---------------------------------------------------------------------------

/// Pattern-match every candidate recursive head against the proven shapes.
///
/// Soundness gate: a head qualifies only if **exactly two** rules derive
/// it (no aggregate rule among them) and the pair matches one shape
/// structurally — every literal accounted for, every variable's role
/// pinned.  `build_plans` re-checks at attachment time that the matched
/// rules are the *entire* recursive component (so the edge relations are
/// final before the plan runs); anything else keeps semi-naive.
pub fn recognize(rules: &[Rule], symbols: &Symbols) -> Vec<NativeShape> {
    let mut by_head: BTreeMap<&str, Vec<&Rule>> = BTreeMap::new();
    for r in rules {
        by_head.entry(&r.head.pred).or_default().push(r);
    }
    let mut shapes = Vec::new();
    for (head, group) in &by_head {
        if group.len() != 2 || group.iter().any(|r| r.head.has_agg()) {
            continue;
        }
        // Identify the non-recursive base and the recursive rule.
        let cites_head = |r: &Rule| r.pos_atoms().chain(r.neg_atoms()).any(|a| a.pred == *head);
        let (base, rec) = match (cites_head(group[0]), cites_head(group[1])) {
            (false, true) => (group[0], group[1]),
            (true, false) => (group[1], group[0]),
            _ => continue,
        };
        if let Some(shape) = match_linear_tc(head, base, rec, symbols)
            .or_else(|| match_path_vector(head, base, rec, symbols))
        {
            shapes.push(shape);
        }
    }
    shapes
}

/// The head as a plain list of distinct variable names, or `None`.
fn head_vars(rule: &Rule) -> Option<Vec<&str>> {
    let atom = rule.head.as_atom()?;
    let mut vars = Vec::with_capacity(atom.args.len());
    for t in &rule.head.args {
        match t {
            crate::ast::HeadArg::Term(Term::Var(v)) => vars.push(v.as_str()),
            _ => return None,
        }
    }
    let distinct: BTreeSet<&str> = vars.iter().copied().collect();
    (distinct.len() == vars.len()).then_some(vars)
}

/// Match an atom as an edge pattern binding `src_var` and `dst_var` once
/// each, with every other argument either a constant or a fresh variable
/// used nowhere else (checked via `forbidden`, the variables that carry
/// meaning elsewhere in the rule).  Returns the column pattern.
fn match_edge_atom(
    atom: &crate::ast::Atom,
    src_var: &str,
    dst_var: &str,
    forbidden: &BTreeSet<&str>,
    symbols: &Symbols,
) -> Option<EdgePattern> {
    let mut src = None;
    let mut dst = None;
    let mut consts = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for (i, t) in atom.args.iter().enumerate() {
        match t {
            Term::Const(c) => consts.push((i, c.clone())),
            Term::Var(v) => {
                // Each variable may appear only once (a repeat would add an
                // equality constraint the native closure does not model).
                if !seen.insert(v) {
                    return None;
                }
                if v == src_var {
                    src = Some(i);
                } else if v == dst_var {
                    dst = Some(i);
                } else if forbidden.contains(v.as_str()) {
                    return None;
                }
            }
        }
    }
    Some(EdgePattern {
        rel: symbols.lookup(&atom.pred)?,
        src: src?,
        dst: dst?,
        consts,
    })
}

/// Try the linear-transitive-closure shape.
fn match_linear_tc(head: &str, base: &Rule, rec: &Rule, symbols: &Symbols) -> Option<NativeShape> {
    let hv = head_vars(base)?;
    let [x, y] = hv[..] else { return None };
    if head_vars(rec)? != vec![x, y] {
        return None;
    }
    let forbidden: BTreeSet<&str> = [x, y].into();
    // Base: single positive edge atom, nothing else.
    let [Literal::Pos(base_atom)] = &base.body[..] else {
        return None;
    };
    if base_atom.pred == head {
        return None;
    }
    let base_pat = match_edge_atom(base_atom, x, y, &forbidden, symbols)?;
    // Recursive: exactly one head atom `h(A,B)` plus one edge atom, in
    // either body order (safety reordering preserves atom order but the
    // source may list them either way).
    let [Literal::Pos(a0), Literal::Pos(a1)] = &rec.body[..] else {
        return None;
    };
    let (h_atom, e_atom) = match (a0.pred == head, a1.pred == head) {
        (true, false) => (a0, a1),
        (false, true) => (a1, a0),
        _ => return None,
    };
    let [Term::Var(ha), Term::Var(hb)] = &h_atom.args[..] else {
        return None;
    };
    if ha == hb || e_atom.pred == head {
        return None;
    }
    // Right-linear `h(X,Y) :- e(..X..Z..), h(Z,Y)`: the head atom carries
    // (Z, Y); left-linear `h(X,Y) :- h(X,Z), e(..Z..Y..)`: it carries (X, Z).
    let (left_linear, z) = if hb == y && ha != x && ha != y {
        (false, ha.as_str())
    } else if ha == x && hb != x && hb != y {
        (true, hb.as_str())
    } else {
        return None;
    };
    let forbidden: BTreeSet<&str> = [x, y, z].into();
    let step_pat = if left_linear {
        match_edge_atom(e_atom, z, y, &forbidden, symbols)?
    } else {
        match_edge_atom(e_atom, x, z, &forbidden, symbols)?
    };
    Some(NativeShape::LinearTc(TcSpec {
        head: symbols.lookup(head)?,
        base: base_pat,
        step: step_pat,
        left_linear,
        base_rule: base.name.clone(),
        rec_rule: rec.name.clone(),
    }))
}

/// Try the §2.2 path-vector shape (exact modulo renaming).
fn match_path_vector(
    head: &str,
    base: &Rule,
    rec: &Rule,
    symbols: &Symbols,
) -> Option<NativeShape> {
    let hv = head_vars(base)?;
    let [s, d, p, c] = hv[..] else { return None };
    // Base: link(S,D,C), P = f_init(S,D) — in either literal order.
    let mut base_edge = None;
    let mut base_init = false;
    for lit in &base.body {
        match lit {
            Literal::Pos(a) if a.pred != head => {
                if base_edge.is_some() {
                    return None;
                }
                if a.args[..] != [var(s), var(d), var(c)] {
                    return None;
                }
                base_edge = Some(a);
            }
            Literal::Assign(v, Expr::Call(f, args))
                if v == p && f == "f_init" && args[..] == [evar(s), evar(d)] =>
            {
                base_init = true;
            }
            _ => return None,
        }
    }
    let base_edge = base_edge?;
    if !base_init || base.body.len() != 2 {
        return None;
    }
    // Recursive head must reuse the same variable pattern (fresh names
    // allowed — re-derive them from the rec head).
    let rv = head_vars(rec)?;
    let [rs, rd, rp, rc] = rv[..] else {
        return None;
    };
    // Expected literals: link(S,Z,C1), path(Z,D,P2,C2), C=C1+C2,
    // P=f_concatPath(S,P2), f_inPath(P2,S)=false.
    let mut edge_atom = None;
    let mut path_atom = None;
    let mut sum = None;
    let mut concat = None;
    let mut guard = false;
    for lit in &rec.body {
        match lit {
            Literal::Pos(a) if a.pred == head => {
                if path_atom.replace(a).is_some() {
                    return None;
                }
            }
            Literal::Pos(a) => {
                if edge_atom.replace(a).is_some() {
                    return None;
                }
            }
            Literal::Assign(v, Expr::Bin(BinOp::Add, lhs, rhs)) if v == rc => {
                if sum.replace((lhs.as_ref(), rhs.as_ref())).is_some() {
                    return None;
                }
            }
            Literal::Assign(v, Expr::Call(f, args)) if v == rp && f == "f_concatPath" => {
                if concat.replace(args).is_some() {
                    return None;
                }
            }
            Literal::Cmp(Expr::Call(f, args), CmpOp::Eq, rhs)
                if f == "f_inPath" && *rhs == Expr::Const(Value::Bool(false)) =>
            {
                if guard || args.len() != 2 {
                    return None;
                }
                // Bind later once Z/P2 are known.
                guard = true;
            }
            _ => return None,
        }
    }
    if rec.body.len() != 5 || !guard {
        return None;
    }
    let (edge_atom, path_atom) = (edge_atom?, path_atom?);
    if edge_atom.pred != base_edge.pred {
        return None;
    }
    // link(S,Z,C1): S from the head, Z and C1 fresh.
    let [Term::Var(es), Term::Var(z), Term::Var(c1)] = &edge_atom.args[..] else {
        return None;
    };
    if es != rs {
        return None;
    }
    // path(Z,D,P2,C2).
    let [Term::Var(pz), Term::Var(pd), Term::Var(p2), Term::Var(c2)] = &path_atom.args[..] else {
        return None;
    };
    if pz != z || pd != rd {
        return None;
    }
    // All variables pairwise distinct.
    let names: BTreeSet<&str> = [
        rs,
        rd,
        rp,
        rc,
        z.as_str(),
        c1.as_str(),
        p2.as_str(),
        c2.as_str(),
    ]
    .into();
    if names.len() != 8 {
        return None;
    }
    // C = C1 + C2 in either order.
    let (sl, sr) = sum?;
    let is = |e: &Expr, v: &str| *e == Expr::Var(v.to_string());
    if !((is(sl, c1) && is(sr, c2)) || (is(sl, c2) && is(sr, c1))) {
        return None;
    }
    // P = f_concatPath(S, P2).
    if concat?[..] != [evar(rs), evar(p2)] {
        return None;
    }
    // f_inPath(P2, S) = false.
    let guard_ok = rec.body.iter().any(|l| {
        matches!(l, Literal::Cmp(Expr::Call(f, args), CmpOp::Eq, _)
            if f == "f_inPath" && args[..] == [evar(p2), evar(rs)])
    });
    if !guard_ok {
        return None;
    }
    // Keep the base and recursive heads on literally the same schema: both
    // are the full (src, dst, path, cost) column order by construction.
    let _ = (s, d, p, c);
    Some(NativeShape::PathVector(PvSpec {
        head: symbols.lookup(head)?,
        edge: symbols.lookup(&base_edge.pred)?,
        base_rule: base.name.clone(),
        rec_rule: rec.name.clone(),
    }))
}

fn var(name: &str) -> Term {
    Term::Var(name.to_string())
}

fn evar(name: &str) -> Expr {
    Expr::Var(name.to_string())
}

// ---------------------------------------------------------------------------
// BFS reachability (linear transitive closure)
// ---------------------------------------------------------------------------

/// Dense-id graph view shared by the native operators: node values interned
/// to `u32`, adjacency as index lists, row sets as bitsets.
struct DenseGraph {
    nodes: Vec<Value>,
    ids: BTreeMap<Value, u32>,
}

impl DenseGraph {
    fn new() -> Self {
        DenseGraph {
            nodes: Vec::new(),
            ids: BTreeMap::new(),
        }
    }

    fn intern(&mut self, v: &Value) -> u32 {
        if let Some(&i) = self.ids.get(v) {
            return i;
        }
        let i = self.nodes.len() as u32;
        self.nodes.push(v.clone());
        self.ids.insert(v.clone(), i);
        i
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// A growable bitset row over dense node ids.
#[derive(Clone, Default)]
struct Row(Vec<u64>);

impl Row {
    fn with_capacity(n: usize) -> Self {
        Row(vec![0; n.div_ceil(64)])
    }

    fn set(&mut self, i: u32) -> bool {
        let (w, b) = ((i / 64) as usize, i % 64);
        let prev = self.0[w];
        self.0[w] |= 1 << b;
        self.0[w] != prev
    }

    fn get(&self, i: u32) -> bool {
        let (w, b) = ((i / 64) as usize, i % 64);
        self.0[w] >> b & 1 == 1
    }

    /// `self |= other`; true if any bit changed.
    fn union(&mut self, other: &Row) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            let n = *a | *b;
            changed |= n != *a;
            *a = n;
        }
        changed
    }

    fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(w as u32 * 64 + b)
            })
        })
    }
}

/// Native linear transitive closure.
///
/// Computes the least fixpoint `h = base ∪ step·h` (pair space; the
/// left-linear variant is the same closure over the transposed graph) with
/// exact firing counts:
///
/// ```text
/// count(x,y) = mult_base(x,y) + Σ_z mult_step(x,z) · [hvis(z,y)]
/// ```
///
/// where `mult_*` are the number of distinct visible edge tuples
/// projecting to a pair, and `hvis` is the computed closure joined with
/// the head relation's *external* (EDB-asserted) tuples — externally
/// asserted head tuples feed the recursive rule exactly as they do under
/// semi-naive evaluation.  The closure rows are derived purely from the
/// edge and EDB sets (`hder(x) = base(x) ∪ ⋃_{x→z} (hder(z) ∪ edb(z))`),
/// never from stored visibility, so well-foundedness is automatic — a
/// retraction can never leave a tuple alive on a support cycle through
/// itself.
pub struct BfsReachability {
    spec: TcSpec,
}

impl BfsReachability {
    /// Build the operator for a recognized closure shape.
    pub fn new(spec: TcSpec) -> Self {
        BfsReachability { spec }
    }

    /// The recognized shape driving this operator.
    pub fn spec(&self) -> &TcSpec {
        &self.spec
    }

    /// Full output with firing counts, restricted to pair-space sources in
    /// `scope` when given (the engine's component-scoped churn re-run;
    /// `None` recomputes every row).
    pub fn run_scoped(
        &self,
        store: &RelationStorage,
        scope: Option<&BTreeSet<Value>>,
    ) -> Vec<(SharedTuple, i64)> {
        let spec = &self.spec;
        let mut g = DenseGraph::new();
        // Edge multiplicities: distinct visible tuples projecting to a pair.
        let mut base_mult: BTreeMap<(u32, u32), i64> = BTreeMap::new();
        for t in store.visible_id(spec.base.rel) {
            if let Some((a, b)) = spec.base_pair(t) {
                let (a, b) = (g.intern(a), g.intern(b));
                *base_mult.entry((a, b)).or_insert(0) += 1;
            }
        }
        let mut step_mult: BTreeMap<(u32, u32), i64> = BTreeMap::new();
        for t in store.visible_id(spec.step.rel) {
            if let Some((a, b)) = spec.step_pair(t) {
                let (a, b) = (g.intern(a), g.intern(b));
                *step_mult.entry((a, b)).or_insert(0) += 1;
            }
        }
        // Externally asserted head tuples join the recursion like any other
        // visible head tuple.
        let mut edb_pairs: Vec<(u32, u32)> = Vec::new();
        for t in store.external_id(spec.head) {
            let (a, b) = (spec.head_src(t), other_coord(spec, t));
            let (a, b) = (g.intern(a), g.intern(b));
            edb_pairs.push((a, b));
        }
        if let Some(scope) = scope {
            for v in scope {
                g.intern(v);
            }
        }
        let n = g.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in step_mult.keys() {
            adj[a as usize].push(b);
        }
        let mut base_rows: Vec<Row> = vec![Row::with_capacity(n); n];
        for &(a, b) in base_mult.keys() {
            base_rows[a as usize].set(b);
        }
        let mut edb_rows: Vec<Row> = vec![Row::with_capacity(n); n];
        for &(a, b) in &edb_pairs {
            edb_rows[a as usize].set(b);
        }
        // Least fixpoint of hder(x) = base(x) ∪ ⋃_{x→z} (hder(z) ∪ edb(z)):
        // sweep until stable (cycles converge because rows only grow).
        let mut hder: Vec<Row> = base_rows.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for x in (0..n).rev() {
                for &znode in &adj[x] {
                    let z = znode as usize;
                    if x == z {
                        let snap = hder[z].clone();
                        changed |= hder[x].union(&snap);
                    } else {
                        let (hx, hz) = pick_two(&mut hder, x, z);
                        changed |= hx.union(hz);
                    }
                    changed |= hder[x].union(&edb_rows[z]);
                }
            }
        }
        // hvis = hder ∪ edb; firing counts against the computed fixpoint.
        let mut counts: BTreeMap<(u32, u32), i64> = BTreeMap::new();
        let in_scope = |x: u32| scope.is_none_or(|s| s.contains(&g.nodes[x as usize]));
        for (&(x, y), &m) in &base_mult {
            if in_scope(x) {
                *counts.entry((x, y)).or_insert(0) += m;
            }
        }
        for (&(x, z), &m) in &step_mult {
            if !in_scope(x) {
                continue;
            }
            let z = z as usize;
            for y in hder[z].iter_ones() {
                *counts.entry((x, y)).or_insert(0) += m;
            }
            for &(a, b) in &edb_pairs {
                if a as usize == z && !hder[z].get(b) {
                    *counts.entry((x, b)).or_insert(0) += m;
                }
            }
        }
        counts
            .into_iter()
            .map(|((x, y), k)| {
                let t = spec.head_tuple(&g.nodes[x as usize], &g.nodes[y as usize]);
                (t, k)
            })
            .collect()
    }

    /// The pair-space sources whose rows a batch's edge/EDB changes can
    /// affect: the reverse closure — over current ∪ just-disappeared step
    /// edges — of every changed tuple's source coordinate.  `None` means
    /// the batch cannot change this stratum at all; the engine skips the
    /// invocation entirely.
    pub fn churn_scope(
        &self,
        store: &RelationStorage,
        edb_losses: &BTreeSet<SharedTuple>,
    ) -> Option<BTreeSet<Value>> {
        let spec = &self.spec;
        let mut seeds: BTreeSet<Value> = BTreeSet::new();
        let mut seed_edges = |rel: RelId, pair: PairExtract| {
            let (appeared, disappeared) = store.batch_marks_id(rel);
            for t in appeared.iter().chain(disappeared) {
                if let Some((a, _)) = pair(t) {
                    seeds.insert(a);
                }
            }
        };
        seed_edges(spec.base.rel, &|t| {
            spec.base_pair(t).map(|(a, b)| (a.clone(), b.clone()))
        });
        seed_edges(spec.step.rel, &|t| {
            spec.step_pair(t).map(|(a, b)| (a.clone(), b.clone()))
        });
        // Head-relation visibility changes so far this batch are external
        // asserts/retracts (nothing else derives into this stratum), and a
        // retraction that only empties external support still invalidates
        // rows that leaned on the tuple (edb_losses).
        let (appeared, disappeared) = store.batch_marks_id(spec.head);
        for t in appeared.iter().chain(disappeared).chain(edb_losses) {
            seeds.insert(spec.head_src(t).clone());
        }
        if seeds.is_empty() {
            return None;
        }
        // Reverse closure over current ∪ disappeared step edges.
        let mut radj: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
        let (_, step_gone) = store.batch_marks_id(spec.step.rel);
        for t in store.visible_id(spec.step.rel).chain(step_gone) {
            if let Some((a, b)) = spec.step_pair(t) {
                radj.entry(b.clone()).or_default().push(a.clone());
            }
        }
        let mut scope = seeds.clone();
        let mut frontier: Vec<Value> = seeds.into_iter().collect();
        while let Some(v) = frontier.pop() {
            if let Some(preds) = radj.get(&v) {
                for p in preds.clone() {
                    if scope.insert(p.clone()) {
                        frontier.push(p);
                    }
                }
            }
        }
        Some(scope)
    }
}

/// The non-source coordinate of a head tuple in pair space.
fn other_coord<'a>(spec: &TcSpec, t: &'a [Value]) -> &'a Value {
    if spec.left_linear {
        &t[0]
    } else {
        &t[1]
    }
}

/// Mutable references to two distinct rows.
fn pick_two<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &T) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &lo[b])
    }
}

impl AlgoOp for BfsReachability {
    fn name(&self) -> &'static str {
        "bfs_reachability"
    }

    fn inputs(&self) -> Vec<RelId> {
        let mut v = vec![self.spec.base.rel, self.spec.step.rel];
        v.dedup();
        v
    }

    fn output(&self) -> RelId {
        self.spec.head
    }

    fn run(&self, store: &RelationStorage) -> Result<Vec<(SharedTuple, i64)>> {
        Ok(self.run_scoped(store, None))
    }
}

// ---------------------------------------------------------------------------
// Dijkstra-style simple-path enumeration (path-vector shape)
// ---------------------------------------------------------------------------

/// Native path-vector evaluation: cost-ordered enumeration of every
/// loop-free path, matching the §2.2 recursion tuple-for-tuple.
///
/// The `f_inPath(P2,S)=false` guard makes the derivable `path` tuples
/// exactly the simple paths of the link graph, one tuple per distinct
/// `(nodes, cost)` pair over every choice of link tuples along the
/// sequence.  A binary heap pops partial paths cheapest-first — classic
/// Dijkstra generalized to full enumeration: the first pop per
/// `(src, dst)` is a shortest path (which the min-cost aggregate stratum
/// above then selects), and the exhaustive tail keeps the materialized
/// relation byte-identical to semi-naive.  Firing counts are recovered in
/// one post-pass: a path `[v0,v1,…,vk]` of cost `C` is derived once per
/// link tuple `(v0,v1,c1)` whose suffix `([v1,…,vk], C−c1)` is itself
/// derivable (plus the `f_init` firing for two-node paths).
pub struct DijkstraPaths {
    spec: PvSpec,
}

/// Heap entry ordered by ascending cost (ties by path), via `Reverse`.
type PathState = std::cmp::Reverse<(i64, Vec<u32>)>;

impl DijkstraPaths {
    /// Build the operator for a recognized path-vector shape.
    pub fn new(spec: PvSpec) -> Self {
        DijkstraPaths { spec }
    }

    /// The recognized shape driving this operator.
    pub fn spec(&self) -> &PvSpec {
        &self.spec
    }

    /// Enumerate every derivable path tuple with firing counts, or `None`
    /// if any link cost is not an integer (the general engine then owns
    /// the exact semantics, including arithmetic type errors).
    pub fn try_run(&self, store: &RelationStorage) -> Option<Vec<(SharedTuple, i64)>> {
        let mut g = DenseGraph::new();
        // adjacency: node -> (succ, cost) per distinct link tuple.
        let mut links: Vec<(u32, u32, i64)> = Vec::new();
        for t in store.visible_id(self.spec.edge) {
            if t.len() != 3 {
                return None;
            }
            let Value::Int(c) = t[2] else {
                return None;
            };
            let (a, b) = (g.intern(&t[0]), g.intern(&t[1]));
            links.push((a, b, c));
        }
        let n = g.len();
        let mut adj: Vec<Vec<(u32, i64)>> = vec![Vec::new(); n];
        for &(a, b, c) in &links {
            adj[a as usize].push((b, c));
        }
        // Cost-ordered exhaustive enumeration of the rule-derivable node
        // sequences.  `f_inPath(P2,S)=false` only checks the *prepended*
        // source against the suffix, and `f_init` applies to self-loop
        // links, so the derivable set is: all nodes pairwise distinct,
        // except that the last two may coincide (a destination self-loop,
        // which no further prepend can extend past).  The heap therefore
        // holds only the all-distinct (extendable) sequences; last-two-
        // equal terminals go straight into `found`.
        let mut found: BTreeSet<(Vec<u32>, i64)> = BTreeSet::new();
        let mut heap: BinaryHeap<PathState> = BinaryHeap::new();
        for &(a, b, c) in &links {
            if a == b {
                found.insert((vec![a, b], c));
            } else {
                heap.push(std::cmp::Reverse((c, vec![a, b])));
            }
        }
        while let Some(std::cmp::Reverse((cost, nodes))) = heap.pop() {
            if !found.insert((nodes.clone(), cost)) {
                continue;
            }
            let last = *nodes.last().expect("paths have ≥ 2 nodes");
            for &(next, c) in &adj[last as usize] {
                if next == last {
                    let mut ext = nodes.clone();
                    ext.push(next);
                    found.insert((ext, cost + c));
                } else if !nodes.contains(&next) {
                    let mut ext = nodes.clone();
                    ext.push(next);
                    heap.push(std::cmp::Reverse((cost + c, ext)));
                }
            }
        }
        // Firing counts: r1 contributes one firing to each two-node path;
        // r2 one per (link tuple, derivable suffix) decomposition.
        let mut out = Vec::with_capacity(found.len());
        for (nodes, cost) in &found {
            let mut k = 0i64;
            if nodes.len() == 2 {
                k += 1; // the f_init firing for the link tuple itself
            } else {
                let suffix = &nodes[1..];
                for &(b, c) in &adj[nodes[0] as usize] {
                    if b == nodes[1] && found.contains(&(suffix.to_vec(), cost - c)) {
                        k += 1;
                    }
                }
            }
            let path: Vec<Value> = nodes.iter().map(|&i| g.nodes[i as usize].clone()).collect();
            let tuple: Vec<Value> = vec![
                g.nodes[nodes[0] as usize].clone(),
                g.nodes[*nodes.last().unwrap() as usize].clone(),
                Value::List(path),
                Value::Int(*cost),
            ];
            out.push((tuple.into(), k));
        }
        Some(out)
    }
}

impl AlgoOp for DijkstraPaths {
    fn name(&self) -> &'static str {
        "dijkstra_paths"
    }

    fn inputs(&self) -> Vec<RelId> {
        vec![self.spec.edge]
    }

    fn output(&self) -> RelId {
        self.spec.head
    }

    fn run(&self, store: &RelationStorage) -> Result<Vec<(SharedTuple, i64)>> {
        self.try_run(store).ok_or_else(|| NdlogError::Eval {
            msg: "dijkstra_paths: non-integer link cost".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use crate::safety::analyze;

    fn shapes_of(src: &str) -> Vec<NativeShape> {
        let prog = crate::parser::parse_program(src).unwrap();
        let a = analyze(&prog).unwrap();
        a.native.clone()
    }

    #[test]
    fn recognizes_reachability_as_right_linear_tc() {
        let a = analyze(&programs::reachability()).unwrap();
        assert_eq!(a.native.len(), 1);
        let NativeShape::LinearTc(spec) = &a.native[0] else {
            panic!("expected LinearTc");
        };
        assert!(!spec.left_linear);
        assert_eq!(a.symbols.name(spec.head), "reachable");
        assert_eq!(a.symbols.name(spec.base.rel), "link");
        assert_eq!((spec.base.src, spec.base.dst), (0, 1));
        assert_eq!((spec.step.src, spec.step.dst), (0, 1));
    }

    #[test]
    fn recognizes_left_linear_closure() {
        let shapes = shapes_of(
            "r1 t(X,Y) :- e(X,Y).
             r2 t(X,Y) :- t(X,Z), e(Z,Y).",
        );
        assert_eq!(shapes.len(), 1);
        let NativeShape::LinearTc(spec) = &shapes[0] else {
            panic!("expected LinearTc");
        };
        assert!(spec.left_linear);
    }

    #[test]
    fn recognizes_path_vector_shape() {
        let a = analyze(&programs::path_vector()).unwrap();
        assert_eq!(a.native.len(), 1);
        let NativeShape::PathVector(spec) = &a.native[0] else {
            panic!("expected PathVector");
        };
        assert_eq!(a.symbols.name(spec.head), "path");
        assert_eq!(a.symbols.name(spec.edge), "link");
    }

    #[test]
    fn rejects_nonlinear_and_guarded_recursions() {
        // Nonlinear: two recursive atoms.
        assert!(shapes_of(
            "r1 t(X,Y) :- e(X,Y).
             r2 t(X,Y) :- t(X,Z), t(Z,Y).",
        )
        .is_empty());
        // Extra guard the closure does not model.
        assert!(shapes_of(
            "r1 t(X,Y) :- e(X,Y,C).
             r2 t(X,Y) :- e(X,Z,C), t(Z,Y), C < 5.",
        )
        .is_empty());
        // Distance-vector: cost-bounded recursion with a repeated head var.
        let a = analyze(&programs::distance_vector(16)).unwrap();
        assert!(a.native.is_empty());
        // Three rules deriving the head.
        assert!(shapes_of(
            "r1 t(X,Y) :- e(X,Y).
             r2 t(X,Y) :- e(X,Z), t(Z,Y).
             r3 t(X,Y) :- f(X,Y).",
        )
        .is_empty());
        // Repeated variable inside the edge atom (equality constraint).
        assert!(shapes_of(
            "r1 t(X,Y) :- e(X,Y,X).
             r2 t(X,Y) :- e(X,Z,Z), t(Z,Y).",
        )
        .is_empty());
    }

    #[test]
    fn recognizes_closure_with_existential_and_const_columns() {
        let shapes = shapes_of(
            "r1 t(X,Y) :- e(X,Y,W).
             r2 t(X,Y) :- e(X,Z,W), t(Z,Y).",
        );
        assert_eq!(shapes.len(), 1);
        let shapes = shapes_of(
            "r1 t(X,Y) :- e(X,Y,1).
             r2 t(X,Y) :- e(X,Z,1), t(Z,Y).",
        );
        assert_eq!(shapes.len(), 1);
        let NativeShape::LinearTc(spec) = &shapes[0] else {
            panic!("expected LinearTc");
        };
        assert_eq!(spec.base.consts, vec![(2, Value::Int(1))]);
    }
}
