//! Indexed relation storage for incremental maintenance.
//!
//! [`RelationStorage`] is the state backbone of [`crate::incremental`]: each
//! relation keeps
//!
//! * a **support map** per tuple — external (EDB) multiplicity plus a derived
//!   support count (the exact number of rule firings, in counting and z-set
//!   strata alike).  A tuple is *visible* while either support is positive;
//! * **hash indexes** on join-key column sets, registered up front from the
//!   rule bodies' static binding patterns, so the delta-rule inner loops
//!   probe O(1) buckets instead of scanning `BTreeSet<Tuple>` linearly;
//! * **per-relation delta sets** (`appeared` / `disappeared`) recording net
//!   visibility changes of the current maintenance batch, with automatic
//!   cancellation (a tuple that disappears and reappears within one batch
//!   nets to no change).
//!
//! # Interned hot path
//!
//! Relations are named by dense [`RelId`]s from a per-store [`Symbols`]
//! table and stored in a `Vec` indexed by id — the maintenance inner loops
//! never touch a `String`.  Tuples are interned per store as
//! [`SharedTuple`]s (`Arc<[Value]>`): the support-map key is the canonical
//! handle and every index bucket, batch mark, and delta-map entry shares
//! it, so the former deep `Vec<Value>` clone per index per transition is
//! now a reference-count bump.  Names enter only through
//! [`RelationStorage::rel_id`] (and [`Symbols::lookup`] for readers); every
//! other method takes the resolved id.
//!
//! The delta sets double as *old-view adjustments*: evaluating a literal
//! against "the database before this batch/round" is `current minus deltas`,
//! which [`RelationStorage::matches_adjusted_id`] and
//! [`RelationStorage::contains_adjusted_id`] compute without materializing a
//! second database.
//!
//! # Determinism
//!
//! Iteration that reaches observable output ([`RelationStorage::relations`],
//! [`RelationStorage::take_changes`], [`RelationStorage::to_database`], the
//! comparison key) walks relations in **name-sorted** order via
//! [`Symbols::sorted`], byte-identical to the former
//! `BTreeMap<String, _>` layout.

use crate::eval::Database;
use crate::symbols::{RelId, Symbols};
use crate::value::{SharedTuple, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Signed net visibility changes per relation id: `+1` appeared, `-1`
/// disappeared.  Used both as batch output and as old-view adjustment.
pub type SignedDeltas = BTreeMap<RelId, BTreeMap<SharedTuple, i64>>;

/// How an update changed a tuple's visibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisibilityChange {
    /// The tuple became visible.
    Appeared,
    /// The tuple stopped being visible.
    Disappeared,
    /// Visibility did not change (support counts may have).
    Unchanged,
}

/// Support for one tuple: external multiplicity and derived support count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Support {
    edb: i64,
    derived: i64,
}

impl Support {
    fn visible(&self) -> bool {
        self.edb > 0 || self.derived > 0
    }
}

/// A hash index of one relation on one column set: the key values at
/// `cols` → the tuples carrying them.
///
/// The crate's one index type.  [`RelationStorage`] keeps one per join
/// pattern the incremental rules register, over its visible tuples; the
/// from-scratch kernel ([`crate::eval::Evaluator::run`]) builds them per
/// run, beside its [`IdDatabase`](crate::eval::IdDatabase), on the column
/// sets its join plans probe.  Tuples shorter than a column are left out.
#[derive(Debug, Clone)]
pub(crate) struct HashIndex {
    /// Sorted argument positions.
    cols: Vec<usize>,
    buckets: HashMap<Vec<Value>, BTreeSet<SharedTuple>>,
}

impl HashIndex {
    /// An index on `cols` (sorted argument positions) back-filled from
    /// `tuples`.
    pub(crate) fn build<'a>(
        cols: &[usize],
        tuples: impl IntoIterator<Item = &'a SharedTuple>,
    ) -> Self {
        let mut ix = HashIndex {
            cols: cols.to_vec(),
            buckets: HashMap::new(),
        };
        for t in tuples {
            ix.insert(t);
        }
        ix
    }

    /// The indexed column set.
    pub(crate) fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The tuple's key, allocated at its exact length (keys are stored).
    fn key(&self, tuple: &[Value]) -> Option<Vec<Value>> {
        let fits = self.cols.iter().all(|&c| c < tuple.len());
        fits.then(|| self.cols.iter().map(|&c| tuple[c].clone()).collect())
    }

    /// Add a tuple under its key.
    pub(crate) fn insert(&mut self, tuple: &SharedTuple) {
        if let Some(key) = self.key(tuple) {
            self.buckets.entry(key).or_default().insert(tuple.clone());
        }
    }

    /// Remove a tuple, dropping its bucket once empty.
    pub(crate) fn remove(&mut self, tuple: &SharedTuple) {
        if let Some(key) = self.key(tuple) {
            if let Some(set) = self.buckets.get_mut(&key) {
                set.remove(tuple);
                if set.is_empty() {
                    self.buckets.remove(&key);
                }
            }
        }
    }

    /// The tuples whose values at the indexed columns equal `key`.
    pub(crate) fn get(&self, key: &[Value]) -> Option<&BTreeSet<SharedTuple>> {
        self.buckets.get(key)
    }

    /// Number of distinct keys (non-empty buckets).
    pub(crate) fn keys(&self) -> usize {
        self.buckets.len()
    }

    /// Approximate footprint: key values plus one reference per entry.
    fn approx_bytes(&self) -> usize {
        self.buckets
            .iter()
            .map(|(key, set)| {
                key.len() * std::mem::size_of::<Value>()
                    + set.len() * std::mem::size_of::<SharedTuple>()
            })
            .sum()
    }
}

/// One stored relation: supports, indexes, and batch delta sets.
#[derive(Debug, Clone, Default)]
struct StoredRelation {
    support: BTreeMap<SharedTuple, Support>,
    /// Number of `support` entries with positive external multiplicity,
    /// so [`RelationStorage::external_id`] can stop (or skip the walk)
    /// once it has yielded them all.
    external: usize,
    /// Hash indexes over the visible tuples, one per registered column set.
    indexes: Vec<HashIndex>,
    appeared: BTreeSet<SharedTuple>,
    disappeared: BTreeSet<SharedTuple>,
    /// Derived tuples homed at *another* node (distributed mode): support is
    /// tracked so retractions can be shipped, but they are invisible to
    /// local rule evaluation — localized rules must only ever join over
    /// tuples homed here, or partial remote views would leak into results.
    exported_support: BTreeMap<SharedTuple, Support>,
    exported_appeared: BTreeSet<SharedTuple>,
    exported_disappeared: BTreeSet<SharedTuple>,
}

impl StoredRelation {
    fn index(&self, cols: &[usize]) -> Option<&HashIndex> {
        self.indexes.iter().find(|ix| ix.cols() == cols)
    }
}

/// Record a visibility transition in a pair of batch delta sets, cancelling
/// opposite transitions of the same tuple.
fn mark_change(
    appeared: &mut BTreeSet<SharedTuple>,
    disappeared: &mut BTreeSet<SharedTuple>,
    tuple: &SharedTuple,
    change: VisibilityChange,
) {
    match change {
        VisibilityChange::Appeared => {
            if !disappeared.remove(tuple.values()) {
                appeared.insert(tuple.clone());
            }
        }
        VisibilityChange::Disappeared => {
            if !appeared.remove(tuple.values()) {
                disappeared.insert(tuple.clone());
            }
        }
        VisibilityChange::Unchanged => {}
    }
}

/// The indexed, counted, delta-tracking store behind the incremental engine.
///
/// # Example
///
/// ```
/// use ndlog::storage::RelationStorage;
/// use ndlog::Value;
///
/// let mut store = RelationStorage::new();
/// // Names are resolved to dense ids once; everything else takes the id.
/// let edge = store.rel_id("edge");
/// store.register_index_id(edge, &[0]);
/// let e = |a: i64, b: i64| vec![Value::Int(a), Value::Int(b)];
/// store.add_edb_id(edge, &e(1, 2), 1);
/// store.add_edb_id(edge, &e(1, 3), 1);
/// // O(1) index probe on the first column:
/// let hits = store.matches_adjusted_id(edge, &[0], &[Value::Int(1)], None);
/// assert_eq!(hits.len(), 2);
/// // Supports are counted: a second assertion survives one retraction.
/// store.add_edb_id(edge, &e(1, 2), 1);
/// store.add_edb_id(edge, &e(1, 2), -1);
/// assert!(store.contains_id(edge, &e(1, 2)));
/// assert_eq!(store.symbols().lookup("edge"), Some(edge));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RelationStorage {
    symbols: Symbols,
    /// Indexed by [`RelId::index`]; always `symbols.len()` entries.
    rels: Vec<StoredRelation>,
    visible_total: usize,
    exported_total: usize,
    /// Distributed mode: this node's address and the location-attribute
    /// position of each located predicate (indexed by id).  Derived tuples
    /// homed elsewhere go to the export side of the store.
    home: Option<u32>,
    export_loc: Vec<Option<usize>>,
}

impl RelationStorage {
    /// An empty store with an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store pre-seeded with an interned symbol table (the engine
    /// path: every program predicate interned in sorted name order, so ids
    /// agree across engines built from the same analysis).
    pub fn with_symbols(symbols: Symbols) -> Self {
        let n = symbols.len();
        RelationStorage {
            symbols,
            rels: (0..n).map(|_| StoredRelation::default()).collect(),
            visible_total: 0,
            exported_total: 0,
            home: None,
            export_loc: vec![None; n],
        }
    }

    /// The store's symbol table.
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// Intern `pred`, growing the dense tables when it is new.
    pub fn rel_id(&mut self, pred: &str) -> RelId {
        let id = self.symbols.intern(pred);
        while self.rels.len() < self.symbols.len() {
            self.rels.push(StoredRelation::default());
            self.export_loc.push(None);
        }
        id
    }

    fn rel(&self, id: RelId) -> &StoredRelation {
        &self.rels[id.index()]
    }

    /// Register a hash index on `cols` (sorted argument positions) of
    /// `rel`.  Idempotent; an empty column set is ignored (that case is a
    /// full scan by definition).  Existing visible tuples are back-filled.
    pub fn register_index_id(&mut self, rel: RelId, cols: &[usize]) {
        let r = &mut self.rels[rel.index()];
        if cols.is_empty() || r.index(cols).is_some() {
            return;
        }
        let visible = r
            .support
            .iter()
            .filter(|(_, s)| s.visible())
            .map(|(t, _)| t);
        let ix = HashIndex::build(cols, visible);
        r.indexes.push(ix);
    }

    /// Enter distributed mode: derived tuples whose location attribute is
    /// not `me` are support-tracked but invisible to rule evaluation.
    /// Must be configured before any tuples are stored.
    pub fn set_home(&mut self, me: u32, locations: &BTreeMap<String, Option<usize>>) {
        debug_assert_eq!(self.visible_total, 0, "set_home on a non-empty store");
        self.home = Some(me);
        for (p, l) in locations {
            let id = self.rel_id(p);
            self.export_loc[id.index()] = *l;
        }
    }

    /// True once [`Self::set_home`] has put the store in distributed mode
    /// (derived tuples may route to the export side).  Native operators
    /// check this and leave localized programs to the general engine.
    pub fn is_distributed(&self) -> bool {
        self.home.is_some()
    }

    /// Would a derived tuple of this relation be export-only (homed at
    /// another node)?  Always false outside distributed mode.
    #[inline]
    pub fn is_exported_id(&self, rel: RelId, tuple: &[Value]) -> bool {
        match (
            self.home,
            self.export_loc.get(rel.index()).copied().flatten(),
        ) {
            (Some(me), Some(i)) => tuple
                .get(i)
                .and_then(Value::as_addr)
                .map(|a| a != me)
                .unwrap_or(false),
            _ => false,
        }
    }

    /// Apply `f` to the support of `tuple` in `map`, inserting only on miss
    /// and removing the entry when both counts return to zero.  Returns the
    /// support before and after, plus the canonical shared handle of the
    /// tuple when the visibility transition needs one (marks/indexes); the
    /// common no-flip case performs exactly one map lookup and **zero**
    /// allocations.
    fn apply_support(
        map: &mut BTreeMap<SharedTuple, Support>,
        tuple: &[Value],
        f: impl FnOnce(&mut Support),
    ) -> (Support, Support, Option<SharedTuple>) {
        match map.get_mut(tuple) {
            Some(s) => {
                let before = *s;
                f(s);
                let after = *s;
                if after.edb == 0 && after.derived == 0 {
                    let (k, _) = map.remove_entry(tuple).expect("entry exists");
                    (before, after, Some(k))
                } else if before.visible() != after.visible() {
                    let k = map.get_key_value(tuple).expect("entry exists").0.clone();
                    (before, after, Some(k))
                } else {
                    (before, after, None)
                }
            }
            None => {
                let mut s = Support::default();
                f(&mut s);
                if s.edb != 0 || s.derived != 0 {
                    let k = SharedTuple::from_slice(tuple);
                    map.insert(k.clone(), s);
                    (Support::default(), s, Some(k))
                } else {
                    (Support::default(), s, None)
                }
            }
        }
    }

    fn update_support(
        &mut self,
        rel: RelId,
        tuple: &[Value],
        f: impl FnOnce(&mut Support),
    ) -> VisibilityChange {
        let r = &mut self.rels[rel.index()];
        let (before, after, handle) = Self::apply_support(&mut r.support, tuple, f);
        match (before.edb > 0, after.edb > 0) {
            (false, true) => r.external += 1,
            (true, false) => r.external -= 1,
            _ => {}
        }
        let change = match (before.visible(), after.visible()) {
            (false, true) => VisibilityChange::Appeared,
            (true, false) => VisibilityChange::Disappeared,
            _ => VisibilityChange::Unchanged,
        };
        if let Some(handle) = handle {
            match change {
                VisibilityChange::Appeared => {
                    r.indexes.iter_mut().for_each(|ix| ix.insert(&handle));
                    self.visible_total += 1;
                }
                VisibilityChange::Disappeared => {
                    r.indexes.iter_mut().for_each(|ix| ix.remove(&handle));
                    self.visible_total -= 1;
                }
                VisibilityChange::Unchanged => {}
            }
            mark_change(&mut r.appeared, &mut r.disappeared, &handle, change);
        }
        change
    }

    /// Update the export side of a relation: no indexes, no visibility, its
    /// own batch delta sets.
    fn update_exported(
        &mut self,
        rel: RelId,
        tuple: &[Value],
        f: impl FnOnce(&mut Support),
    ) -> VisibilityChange {
        let r = &mut self.rels[rel.index()];
        let (before, after, handle) = Self::apply_support(&mut r.exported_support, tuple, f);
        let change = match (before.visible(), after.visible()) {
            (false, true) => {
                self.exported_total += 1;
                VisibilityChange::Appeared
            }
            (true, false) => {
                self.exported_total -= 1;
                VisibilityChange::Disappeared
            }
            _ => VisibilityChange::Unchanged,
        };
        if let Some(handle) = handle {
            mark_change(
                &mut r.exported_appeared,
                &mut r.exported_disappeared,
                &handle,
                change,
            );
        }
        change
    }

    /// Adjust a tuple's external (EDB) multiplicity by `k` (clamped at 0).
    pub fn add_edb_id(&mut self, rel: RelId, tuple: &[Value], k: i64) -> VisibilityChange {
        self.update_support(rel, tuple, |s| s.edb = (s.edb + k).max(0))
    }

    /// Adjust a tuple's derived support count by `k`.
    pub fn add_derived_id(&mut self, rel: RelId, tuple: &[Value], k: i64) -> VisibilityChange {
        if self.is_exported_id(rel, tuple) {
            self.update_exported(rel, tuple, |s| s.derived += k)
        } else {
            self.update_support(rel, tuple, |s| s.derived += k)
        }
    }

    /// Zero a tuple's derived support count (z-set maintenance force-kills
    /// tuples whose remaining support is circular).
    pub fn clear_derived_id(&mut self, rel: RelId, tuple: &[Value]) -> VisibilityChange {
        if self.is_exported_id(rel, tuple) {
            self.update_exported(rel, tuple, |s| s.derived = 0)
        } else {
            self.update_support(rel, tuple, |s| s.derived = 0)
        }
    }

    /// Derived support count of a tuple (0 when absent).
    pub fn derived_count_id(&self, rel: RelId, tuple: &[Value]) -> i64 {
        let r = self.rel(rel);
        let side = if self.is_exported_id(rel, tuple) {
            r.exported_support.get(tuple)
        } else {
            r.support.get(tuple)
        };
        side.map(|s| s.derived).unwrap_or(0)
    }

    /// Export-side tuples of a relation with positive support (distributed
    /// mode: what this node has derived for other owners).
    pub fn exported_id(&self, rel: RelId) -> impl Iterator<Item = &SharedTuple> {
        self.rel(rel)
            .exported_support
            .iter()
            .filter(|(_, s)| s.visible())
            .map(|(t, _)| t)
    }

    /// External multiplicity of a tuple (0 when absent).
    pub fn edb_count_id(&self, rel: RelId, tuple: &[Value]) -> i64 {
        self.rel(rel).support.get(tuple).map(|s| s.edb).unwrap_or(0)
    }

    /// Is the tuple visible?
    #[inline]
    pub fn contains_id(&self, rel: RelId, tuple: &[Value]) -> bool {
        self.rel(rel)
            .support
            .get(tuple)
            .map(|s| s.visible())
            .unwrap_or(false)
    }

    /// Visible tuples of a relation, in deterministic order.
    pub fn visible_id(&self, rel: RelId) -> impl Iterator<Item = &SharedTuple> {
        self.rel(rel)
            .support
            .iter()
            .filter(|(_, s)| s.visible())
            .map(|(t, _)| t)
    }

    /// Externally-supported tuples of a relation (positive base
    /// multiplicity), in deterministic order: ground facts and asserted
    /// churn, not derivations.  This is the seed set of the demand-driven
    /// query path.  The relation counts its externally-supported tuples,
    /// so the walk over the support map stops after the last of them, and
    /// a purely derived relation yields nothing without walking at all.
    pub fn external_id(&self, rel: RelId) -> impl Iterator<Item = &SharedTuple> {
        let r = self.rel(rel);
        r.support
            .iter()
            .filter(|(_, s)| s.edb > 0)
            .map(|(t, _)| t)
            .take(r.external)
    }

    /// Number of visible tuples of a relation.
    pub fn len_of_id(&self, rel: RelId) -> usize {
        self.rel(rel)
            .support
            .values()
            .filter(|s| s.visible())
            .count()
    }

    /// Total visible tuples across relations (export side excluded).
    pub fn total(&self) -> usize {
        self.visible_total
    }

    /// Total export-side tuples with positive support (distributed mode).
    /// Counts toward evaluation bounds: a divergent program whose growing
    /// heads are owned by a neighbor must still trip the tuple limit.
    pub fn exported_total(&self) -> usize {
        self.exported_total
    }

    /// Approximate in-memory footprint of the stored data in bytes:
    /// support-map entries (visible and exported) priced at their tuple
    /// widths plus per-entry bookkeeping, indexes at one reference per
    /// indexed tuple.  A sizing signal for checkpoint telemetry, not an
    /// allocator-exact measure.
    pub fn approx_bytes(&self) -> usize {
        const ENTRY_OVERHEAD: usize = 48; // map node + Support + Arc header
        let mut bytes = 0usize;
        for rel in &self.rels {
            for support in [&rel.support, &rel.exported_support] {
                for tuple in support.keys() {
                    bytes += ENTRY_OVERHEAD + tuple.len() * std::mem::size_of::<Value>();
                }
            }
            bytes += rel
                .indexes
                .iter()
                .map(HashIndex::approx_bytes)
                .sum::<usize>();
        }
        bytes
    }

    /// All **interned** relation names, in name-sorted order.  Unlike the
    /// former `BTreeMap`-keyed layout, this includes program relations that
    /// currently hold no tuples (stores built from an analysis pre-intern
    /// the full predicate set); filter with [`Self::len_of_id`] if "has
    /// recorded state" matters.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.symbols
            .sorted()
            .iter()
            .map(|&id| self.symbols.name(id))
    }

    /// All interned relation ids, in name-sorted order (see
    /// [`Self::relations`] — possibly-empty relations included).
    pub fn relation_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        self.symbols.sorted().iter().copied()
    }

    /// Refresh the `ndlog_relation_tuples{rel="…"}` gauge family with the
    /// current visible size of every relation (name-sorted, empty relations
    /// included).  A no-op when `t` is the disabled sink.  Called by
    /// `Session::metrics()` so snapshots always carry current sizes.
    pub fn record_size_gauges(&self, t: &fvn_telemetry::Telemetry) {
        if !t.is_enabled() {
            return;
        }
        for rel in self.relation_ids() {
            let name = self.symbols.name(rel);
            t.gauge(&format!("ndlog_relation_tuples{{rel=\"{name}\"}}"))
                .set(self.len_of_id(rel) as i64);
        }
    }

    /// Is the tuple visible in the *adjusted* view `current minus deltas`?
    ///
    /// A `+1` delta entry (appeared) is treated as absent, a `-1` entry
    /// (disappeared) as present.
    pub fn contains_adjusted_id(
        &self,
        rel: RelId,
        tuple: &[Value],
        minus: Option<&SignedDeltas>,
    ) -> bool {
        if let Some(d) = minus.and_then(|m| m.get(&rel)).and_then(|dm| dm.get(tuple)) {
            return *d < 0;
        }
        self.contains_id(rel, tuple)
    }

    /// Visible tuples of `rel` whose values at `cols` equal `key`, in the
    /// view `current minus deltas` (see [`Self::contains_adjusted_id`]).
    /// Uses the hash index registered for `cols` when available, else
    /// scans.
    pub fn matches_adjusted_id<'a>(
        &'a self,
        rel: RelId,
        cols: &[usize],
        key: &[Value],
        minus: Option<&'a SignedDeltas>,
    ) -> Vec<&'a SharedTuple> {
        let mut out = Vec::new();
        self.matches_adjusted_id_into(rel, cols, key, minus, &mut out);
        out
    }

    /// Allocation-free form of [`Self::matches_adjusted_id`]: appends the
    /// matches to a caller-owned (reusable) buffer.  With a warm buffer the
    /// probe itself performs no heap allocation at all — what EXP-11
    /// measures.
    pub fn matches_adjusted_id_into<'a>(
        &'a self,
        rel: RelId,
        cols: &[usize],
        key: &[Value],
        minus: Option<&'a SignedDeltas>,
        out: &mut Vec<&'a SharedTuple>,
    ) {
        let dm = minus.and_then(|m| m.get(&rel));
        let r = self.rel(rel);
        let from_index = r.index(cols).map(|ix| ix.get(key));
        match from_index {
            Some(bucket) => {
                for t in bucket.into_iter().flatten() {
                    if dm.and_then(|d| d.get(t.values())).copied().unwrap_or(0) <= 0 {
                        out.push(t);
                    }
                }
            }
            None => {
                // No index registered for this column set: filter a scan.
                for (t, s) in &r.support {
                    if s.visible()
                        && cols
                            .iter()
                            .enumerate()
                            .all(|(i, &c)| t.get(c) == key.get(i))
                        && dm.and_then(|d| d.get(t.values())).copied().unwrap_or(0) <= 0
                    {
                        out.push(t);
                    }
                }
            }
        }
        // Tuples deleted this batch/round are part of the old view.  When
        // the bound columns start with a run of leading tuple positions
        // (`cols` is sorted, so [0,1,3] has the run [0,1]), a sorted-range
        // scan over that run replaces the full delta iteration, with the
        // remaining columns checked per candidate — counting and z-set
        // maintenance probe this on every inner-loop join, so the
        // difference is quadratic vs near-linear in the batch size.
        if let Some(d) = dm {
            let run = cols
                .iter()
                .enumerate()
                .take_while(|&(i, &c)| c == i)
                .count();
            if run > 0 {
                for (t, sign) in d.range::<[Value], _>((
                    std::ops::Bound::Included(&key[..run]),
                    std::ops::Bound::Unbounded,
                )) {
                    if t.get(..run) != Some(&key[..run]) {
                        break;
                    }
                    if *sign < 0
                        && !self.contains_id(rel, t)
                        && cols[run..]
                            .iter()
                            .zip(&key[run..])
                            .all(|(&c, k)| t.get(c) == Some(k))
                    {
                        out.push(t);
                    }
                }
            } else {
                for (t, sign) in d {
                    if *sign < 0
                        && !self.contains_id(rel, t)
                        && cols
                            .iter()
                            .enumerate()
                            .all(|(i, &c)| t.get(c) == key.get(i))
                    {
                        out.push(t);
                    }
                }
            }
        }
    }

    /// The net visibility changes recorded for one relation this batch.
    pub fn batch_marks_id(&self, rel: RelId) -> (&BTreeSet<SharedTuple>, &BTreeSet<SharedTuple>) {
        let r = self.rel(rel);
        (&r.appeared, &r.disappeared)
    }

    /// Net visibility changes of all relations, as a signed delta map
    /// (`+1` appeared, `-1` disappeared).  Does not clear the marks.
    pub fn batch_deltas(&self) -> SignedDeltas {
        self.batch_deltas_for(self.relation_ids())
    }

    /// Like [`Self::batch_deltas`], restricted to `rels` (what a stratum's
    /// maintenance reads for its body predicates).  Entries share the
    /// canonical tuple handles — no tuple is deep-copied.
    pub fn batch_deltas_for(&self, rels: impl IntoIterator<Item = RelId>) -> SignedDeltas {
        let mut out = SignedDeltas::new();
        for id in rels {
            let r = self.rel(id);
            if r.appeared.is_empty() && r.disappeared.is_empty() {
                continue;
            }
            let m = out.entry(id).or_default();
            for t in &r.appeared {
                m.insert(t.clone(), 1);
            }
            for t in &r.disappeared {
                m.insert(t.clone(), -1);
            }
        }
        out
    }

    /// Drain the batch delta sets (local *and* export side), returning
    /// `(rel, tuple, ±1)` records in name-sorted relation order.  The
    /// tuples are the canonical shared handles — no name or tuple is
    /// cloned; callers translate ids to names only at true boundaries.
    pub fn take_changes(&mut self) -> Vec<(RelId, SharedTuple, i64)> {
        let mut out = Vec::new();
        for &id in self.symbols.sorted() {
            let r = &mut self.rels[id.index()];
            for t in std::mem::take(&mut r.appeared) {
                out.push((id, t, 1));
            }
            for t in std::mem::take(&mut r.disappeared) {
                out.push((id, t, -1));
            }
            for t in std::mem::take(&mut r.exported_appeared) {
                out.push((id, t, 1));
            }
            for t in std::mem::take(&mut r.exported_disappeared) {
                out.push((id, t, -1));
            }
        }
        out
    }

    /// Materialize the visible database (for comparison and external reads).
    pub fn to_database(&self) -> Database {
        let mut db = Database::new();
        for &id in self.symbols.sorted() {
            let name = self.symbols.name(id);
            for (t, s) in &self.rels[id.index()].support {
                if s.visible() {
                    db.insert(name.to_string(), t.to_tuple());
                }
            }
        }
        db
    }
}

impl PartialEq for RelationStorage {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key().eq(other.cmp_key())
    }
}

impl Eq for RelationStorage {}

impl PartialOrd for RelationStorage {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RelationStorage {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp_key().cmp(other.cmp_key())
    }
}

impl RelationStorage {
    /// Canonical comparison view: support maps only, in name order (indexes
    /// are derived data; batch marks are transient and empty between
    /// batches; intern order is an execution detail).
    #[allow(clippy::type_complexity)]
    fn cmp_key(
        &self,
    ) -> impl Iterator<
        Item = (
            &str,
            &BTreeMap<SharedTuple, Support>,
            &BTreeMap<SharedTuple, Support>,
        ),
    > {
        self.symbols
            .sorted()
            .iter()
            .map(|&id| {
                let r = self.rel(id);
                (self.symbols.name(id), &r.support, &r.exported_support)
            })
            .filter(|(_, s, e)| !s.is_empty() || !e.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Tuple, Value};

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn visibility_tracks_combined_support() {
        let mut s = RelationStorage::new();
        let p = s.rel_id("p");
        assert_eq!(s.add_edb_id(p, &t(&[1]), 1), VisibilityChange::Appeared);
        assert_eq!(
            s.add_derived_id(p, &t(&[1]), 2),
            VisibilityChange::Unchanged
        );
        assert_eq!(s.add_edb_id(p, &t(&[1]), -1), VisibilityChange::Unchanged);
        assert_eq!(
            s.add_derived_id(p, &t(&[1]), -2),
            VisibilityChange::Disappeared
        );
        assert!(!s.contains_id(p, &t(&[1])));
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn marks_cancel_round_trips() {
        let mut s = RelationStorage::new();
        let p = s.rel_id("p");
        s.add_edb_id(p, &t(&[1]), 1);
        s.add_edb_id(p, &t(&[1]), -1);
        let (app, dis) = s.batch_marks_id(p);
        assert!(
            app.is_empty() && dis.is_empty(),
            "net-zero change leaves no mark"
        );
        s.add_edb_id(p, &t(&[2]), 1);
        let changes = s.take_changes();
        assert_eq!(changes, vec![(p, SharedTuple::from(t(&[2])), 1)]);
        assert!(s.take_changes().is_empty());
    }

    #[test]
    fn index_probe_matches_scan() {
        let mut s = RelationStorage::new();
        let e = s.rel_id("e");
        s.register_index_id(e, &[0]);
        for (a, b) in [(1, 2), (1, 3), (2, 3)] {
            s.add_edb_id(e, &t(&[a, b]), 1);
        }
        let hits = s.matches_adjusted_id(e, &[0], &[Value::Int(1)], None);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|tu| tu[0] == Value::Int(1)));
        // Unindexed column set falls back to a scan with the same answer.
        let scan = s.matches_adjusted_id(e, &[1], &[Value::Int(3)], None);
        assert_eq!(scan.len(), 2);
    }

    #[test]
    fn index_backfills_on_late_registration() {
        let mut s = RelationStorage::new();
        let e = s.rel_id("e");
        s.add_edb_id(e, &t(&[1, 2]), 1);
        s.register_index_id(e, &[1]);
        let hits = s.matches_adjusted_id(e, &[1], &[Value::Int(2)], None);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn adjusted_view_reconstructs_old_state() {
        let mut s = RelationStorage::new();
        let e = s.rel_id("e");
        s.register_index_id(e, &[0]);
        s.add_edb_id(e, &t(&[1, 2]), 1); // old tuple
        s.take_changes();
        s.add_edb_id(e, &t(&[1, 3]), 1); // appeared this batch
        s.add_edb_id(e, &t(&[1, 2]), -1); // disappeared this batch
        let deltas = s.batch_deltas();
        // New view: only (1,3).
        assert!(s.contains_id(e, &t(&[1, 3])) && !s.contains_id(e, &t(&[1, 2])));
        // Old view: only (1,2).
        assert!(s.contains_adjusted_id(e, &t(&[1, 2]), Some(&deltas)));
        assert!(!s.contains_adjusted_id(e, &t(&[1, 3]), Some(&deltas)));
        let old = s.matches_adjusted_id(e, &[0], &[Value::Int(1)], Some(&deltas));
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].values(), &t(&[1, 2])[..]);
    }

    #[test]
    fn ordering_ignores_indexes_and_intern_order() {
        let mut a = RelationStorage::new();
        let mut b = RelationStorage::new();
        let pa = a.rel_id("p");
        a.register_index_id(pa, &[0]);
        a.add_edb_id(pa, &t(&[1]), 1);
        // b interns q before p: different ids, same canonical state.
        b.rel_id("q");
        let pb = b.rel_id("p");
        b.add_edb_id(pb, &t(&[1]), 1);
        assert_eq!(a, b);
        b.add_derived_id(pb, &t(&[1]), 1);
        assert_ne!(a, b, "support counts are part of the canonical state");
    }

    #[test]
    fn to_database_exports_visible_only() {
        let mut s = RelationStorage::new();
        let p = s.rel_id("p");
        s.add_edb_id(p, &t(&[1]), 1);
        s.add_edb_id(p, &t(&[2]), 1);
        s.add_edb_id(p, &t(&[2]), -1);
        let db = s.to_database();
        assert_eq!(db.len_of("p"), 1);
        assert!(db.contains("p", &t(&[1])));
    }

    #[test]
    fn external_count_tracks_edb_support() {
        let mut s = RelationStorage::new();
        let p = s.rel_id("p");
        // (stored count, what `external_id` yields, an independent filter)
        let ext = |s: &RelationStorage| {
            let by_probe = s.visible_id(p).filter(|u| s.edb_count_id(p, u) > 0).count();
            (
                s.rels[p.index()].external,
                s.external_id(p).count(),
                by_probe,
            )
        };
        s.add_edb_id(p, &t(&[1]), 1);
        s.add_edb_id(p, &t(&[1]), 1); // multiplicity 2: still one tuple
        s.add_edb_id(p, &t(&[2]), 1);
        s.add_derived_id(p, &t(&[3]), 1); // derived only: not external
        assert_eq!(ext(&s), (2, 2, 2));
        s.add_edb_id(p, &t(&[1]), -1);
        assert_eq!(ext(&s), (2, 2, 2));
        s.add_edb_id(p, &t(&[2]), -5); // clamps at 0
        assert_eq!(ext(&s), (1, 1, 1));
        s.add_edb_id(p, &t(&[2]), -1); // retracting an absent fact
        assert_eq!(ext(&s), (1, 1, 1));
        // Derived support keeps the entry alive after its edb reaches 0.
        s.add_derived_id(p, &t(&[1]), 1);
        s.add_edb_id(p, &t(&[1]), -1);
        assert_eq!(ext(&s), (0, 0, 0));
        assert!(s.contains_id(p, &t(&[1])));
        s.add_edb_id(p, &t(&[3]), 2); // a derived tuple asserted too
        assert_eq!(ext(&s), (1, 1, 1));
        assert_eq!(s.external_id(p).next().unwrap().values(), &t(&[3])[..]);
    }

    #[test]
    fn external_count_survives_snapshot_restore() {
        use crate::incremental::{IncrementalEngine, TupleDelta};
        let prog = crate::parser::parse_program(
            "r1 reachable(S,D) :- link(S,D,C).
             link(0,1,1).
             reachable(1,7).",
        )
        .unwrap();
        let mut engine = IncrementalEngine::new(&prog).unwrap();
        let count = |e: &IncrementalEngine, pred: &str| {
            let st = e.storage();
            let rel = st.symbols().lookup(pred).unwrap();
            (st.rels[rel.index()].external, st.external_id(rel).count())
        };
        assert_eq!(count(&engine, "reachable"), (1, 1));
        assert_eq!(count(&engine, "link"), (1, 1));
        let snap = engine.snapshot();
        let delta = |pred: &str, tuple: &[i64], delta| TupleDelta {
            pred: pred.into(),
            tuple: t(tuple),
            delta,
        };
        engine
            .apply(&[
                delta("reachable", &[1, 7], -1),
                delta("link", &[2, 3, 1], 1),
            ])
            .unwrap();
        assert_eq!(count(&engine, "reachable"), (0, 0));
        assert_eq!(count(&engine, "link"), (2, 2));
        engine.restore(&snap).unwrap();
        assert_eq!(count(&engine, "reachable"), (1, 1));
        assert_eq!(count(&engine, "link"), (1, 1));
    }

    #[test]
    fn shared_handles_are_reused_across_indexes_and_marks() {
        let mut s = RelationStorage::new();
        let e = s.rel_id("e");
        s.register_index_id(e, &[0]);
        s.add_edb_id(e, &t(&[1, 2]), 1);
        // The index bucket and the support key share one allocation.
        let hits = s.matches_adjusted_id(e, &[0], &[Value::Int(1)], None);
        assert_eq!(hits.len(), 1);
        let from_support = s.visible_id(e).next().unwrap();
        assert_eq!(hits[0], from_support);
    }
}
