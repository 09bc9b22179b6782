//! # ndlog — Network Datalog
//!
//! The intermediary language of *Formally Verifiable Networking* (FVN,
//! HotNets 2009).  NDlog is a distributed recursive query language over
//! network graphs (Loo et al., SIGCOMM'05/SOSP'05); FVN uses it as the bridge
//! between high-level logical specifications and low-level protocol
//! implementations.
//!
//! This crate provides the complete language substrate:
//!
//! * [`ast`] / [`parser`] — the concrete syntax of the paper (§2.2 rules
//!   `r1`–`r4` parse verbatim), `materialize` declarations, ground facts;
//! * [`safety`] — range restriction, negation safety, location-specifier
//!   consistency, and stratification;
//! * [`eval`] — the one evaluation kernel: centralized semi-naive
//!   bottom-up evaluation (plus the naive reference iterator) with
//!   `min`/`max`/`count`/`sum` aggregates;
//! * [`localize`] — the rule-localization rewrite that turns multi-location
//!   rules into link-local rules for distributed execution;
//! * [`storage`] / [`incremental`] — the incremental maintenance subsystem:
//!   indexed relation storage with per-relation delta sets, counting-based
//!   maintenance for non-recursive strata and difference-based z-set
//!   maintenance for recursive ones, so topology churn is absorbed as
//!   tuple deltas instead of epoch recomputation;
//! * [`symbols`] — the relation-name interner: dense [`symbols::RelId`]s
//!   and shared tuples ([`value::SharedTuple`]) keep the join-probe /
//!   support-update hot path free of `String` clones and deep tuple copies;
//! * [`sharded`] / [`pool`] — sharded parallel evaluation: a
//!   [`sharded::ShardRouter`] partitions delta work across the **persistent
//!   worker threads** of a [`pool::ShardPool`] by join-key hash, with
//!   per-round fixpoint barriers and order-insensitive merges keeping
//!   results byte-identical to the single-threaded engines;
//! * [`update`] — the **unified transactional churn API**: one typed
//!   [`update::Update`] stream ([`update::Session`] / [`update::Txn`]) with
//!   batch windows and soft-state TTLs, the single front door through which
//!   churn reaches every backend (incremental, sharded, oracle, and — via
//!   `ndlog_runtime` — the distributed engines);
//! * [`softstate`] — the §4.2 soft-state → hard-state rewrite with explicit
//!   timestamps and lifetimes (the static alternative to
//!   [`update::TtlPolicy`]'s live expiry deltas);
//! * [`query`] — demand-driven point queries: a typed [`query::Query`]
//!   (predicate + per-column binding pattern) compiled via a magic-sets
//!   rewrite of the stratified program and evaluated semi-naively over
//!   only the demanded sub-goal — the scoped read path behind
//!   `Session::query`, next to `Session::relation` (single-relation read)
//!   and `Session::database()` (bulk/debug);
//! * [`explain`] — derivation provenance: `Session::explain(&Query)`
//!   walks the support map to rule-level derivation trees for every
//!   visible tuple matching the query's binding pattern, the
//!   observability counterpart of the paper's proof obligations (metrics
//!   live in the re-exported [`telemetry`] crate);
//! * [`builtins`] — `f_init`, `f_concatPath`, `f_inPath` and friends;
//! * [`programs`] — the paper's protocols (path vector, distance vector,
//!   reachability) as reusable constructors.
//!
//! Deterministic by construction: all relations are `BTreeSet`s, all maps
//! `BTreeMap`s, and evaluation order is defined by the safety analysis.

// `deny` instead of `forbid`: the scoped-job dispatch inside [`pool`] needs
// a locally-audited `allow(unsafe_code)` (same pattern as `std::thread::scope`
// internals); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod ast;
pub mod builtins;
pub mod error;
pub mod eval;
pub mod explain;
pub mod incremental;
pub mod lexer;
pub mod localize;
pub mod parser;
pub mod pool;
pub mod programs;
pub mod query;
pub mod safety;
pub mod sharded;
pub mod softstate;
pub mod storage;
pub mod symbols;
pub mod update;
pub mod value;

/// The telemetry layer (re-exported `fvn_telemetry` crate): metrics
/// registry, statically-dispatched counter/gauge/histogram handles, phase
/// timers, and deterministic snapshots.  Engines expose it through
/// [`update::SessionBuilder::telemetry`] and `Session::metrics()`.
pub use fvn_telemetry as telemetry;

pub use algo::{AlgoOp, BfsReachability, DijkstraPaths, NativeShape};
pub use ast::{Atom, Expr, Head, HeadArg, Literal, Program, Rule, Term};
pub use error::{NdlogError, Result};
pub use eval::{eval_program, Database, EvalOptions, EvalStats, Evaluator, IdDatabase};
pub use explain::{Explanation, Support};
pub use incremental::{
    BatchOutcome, BatchStats, EngineSnapshot, IncrementalEngine, InternedOutcome, RelDelta,
    TupleDelta,
};
pub use parser::{parse_program, parse_rule};
pub use pool::ShardPool;
pub use query::{Query, QueryEngine, QueryResult, QueryStats};
pub use safety::{analyze, Analysis};
pub use sharded::ShardRouter;
pub use storage::RelationStorage;
pub use symbols::{RelId, Symbols};
pub use update::{CommitOutcome, Session, SessionBuilder, TtlPolicy, Txn, Update};
pub use value::{SharedTuple, Tuple, Value};
