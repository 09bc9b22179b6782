//! The five workloads: seeded inputs, the operation each one times, and the
//! oracle each operation's output is checked against.
//!
//! Every workload has a shape that does not depend on the seed: its
//! topology, and which links churn, which node pairs are queried and where
//! faults strike, all drawn in shape space by generators fixed per shape.
//! The seed relabels the nodes and draws link costs, new metric values and
//! the simulator's loss, duplication and jitter.  Two seeds therefore do
//! the same amount of work on different inputs, which keeps their timings
//! comparable: a benchmark's spread is measured over seeds.

use crate::trace::{allocs, gauge_sum, Probe, Recorder};
use fvn_mc::{check_invariant, ChurnState, ChurnTs, ExploreOptions, TransitionSystem};
use ndlog::{Database, EngineSnapshot, Program, Query, Session, Update, Value};
use ndlog_runtime::DistRuntime;
use netsim::{LinkSchedule, SimConfig, SimStats, Topology};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

pub const NAMES: [&str; 5] = [
    "pv_build",
    "pv_churn",
    "reach_mixed",
    "dist_lossy",
    "mc_churn",
];

/// Full size for measurement; smoke size exercises every path in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// One workload: a timed set-up, then rounds that each replay the same
/// seeded operations from the same start state.
pub trait Workload {
    type State;
    /// Generate the inputs and build the system under test (timed as
    /// `setup_s`).  `telemetry` enables the program's metrics for a traced
    /// pass.
    fn setup(&self, telemetry: bool) -> Result<Self::State, String>;
    /// Operations per round.
    fn round(&self) -> usize {
        1
    }
    /// Return to the start state of a round (outside any timed span);
    /// nothing to do when an operation leaves the state as it found it.
    fn rewind(&self, _st: &mut Self::State) -> Result<(), String> {
        Ok(())
    }
    /// Run operation `i` of a round inside one top-level span, then check
    /// its output outside the span.  Checks that need an oracle run in the
    /// `first` round only: later rounds replay identical inputs.  `Err`
    /// means the call failed or its check did.
    fn op(
        &self,
        st: &mut Self::State,
        i: usize,
        first: bool,
        rec: &mut Recorder,
    ) -> Result<(), String>;
    /// The end-of-run check, and end-of-run levels when traced.
    fn finish(&self, st: &mut Self::State, rec: &mut Recorder) -> Result<(), String>;
}

/// A splitmix64 generator: the benchmark's inputs depend on nothing but
/// the seed and this code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng(u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// A generator seeded by the run seed and a per-stream salt, so streams of
/// one run are independent of each other.  The salt is hashed with FNV-1a,
/// which (unlike `DefaultHasher`) no toolchain update can change.
pub fn rng(seed: u64, salt: &str) -> Rng {
    let h = salt.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    Rng(seed ^ h)
}

/// Seeds the generators of structural choices (where chords sit, which
/// link churns, which node pair is queried), which are the same for every
/// run seed.
const SHAPE_SEED: u64 = 0x5eed_5a9e;

/// The generator of one structural choice.
fn shape_rng(what: &str) -> Rng {
    rng(SHAPE_SEED, what)
}

/// A workload graph: a fixed shape whose nodes a seeded permutation
/// relabels and whose links get seeded costs.  Choices made in shape space
/// and mapped through [`Graph::node`] give every seed the same amount of
/// work on different inputs.
#[derive(Debug, Clone)]
pub struct Graph {
    shape: Topology,
    perm: Vec<u32>,
    /// The shape's links in shape order, relabeled, with their costs.
    links: Vec<(u32, u32, i64)>,
}

impl Graph {
    fn new(shape: Topology, rng: &mut Rng, max_cost: i64) -> Self {
        let mut perm: Vec<u32> = (0..shape.num_nodes()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let links = shape
            .edges()
            .map(|(a, b, _)| (perm[a as usize], perm[b as usize], rng.between(1, max_cost)))
            .collect();
        Graph { shape, perm, links }
    }

    /// A balanced binary tree over `n` nodes plus `chords` extra links,
    /// with costs in `1..=8`.
    pub fn tree_with_chords(n: u32, chords: usize, rng: &mut Rng) -> Self {
        let mut shape = Topology::binary_tree(n);
        let mut fixed = shape_rng(&format!("chords {n}"));
        while shape.num_edges() < n as usize - 1 + chords {
            let mut node = || fixed.below(n as usize) as u32;
            let (a, b) = (node(), node());
            if a != b && !shape.has_edge(a, b) {
                shape.add_edge(a, b, 1);
            }
        }
        Graph::new(shape, rng, 8)
    }

    /// The label of shape node `v`.
    pub fn node(&self, v: u32) -> u32 {
        self.perm[v as usize]
    }

    pub fn topology(&self) -> Topology {
        topology_of(self.shape.num_nodes(), &self.links)
    }
}

fn topology_of(n: u32, links: &[(u32, u32, i64)]) -> Topology {
    let mut t = Topology::empty(n);
    for &(a, b, c) in links {
        t.add_edge(a, b, c);
    }
    t
}

fn path_vector_on(topo: &Topology) -> Program {
    ndlog::programs::path_vector_on(&topo.edge_list())
}

fn reachability_on(topo: &Topology) -> Program {
    let mut p = ndlog::programs::reachability();
    ndlog::programs::add_links(&mut p, &topo.edge_list());
    p
}

/// A 64-bit digest of a database's contents.
pub fn digest(db: &Database) -> u64 {
    let mut h = DefaultHasher::new();
    for rel in db.relations() {
        rel.hash(&mut h);
        for t in db.relation(rel) {
            t.hash(&mut h);
        }
    }
    h.finish()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Median wall time of a direct `ndlog::analyze` call, in ms.
fn analyze_ms(prog: &Program) -> Result<f64, String> {
    let mut ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        ndlog::analyze(prog).map_err(err)?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::stats::median(&ms))
}

/// Record the session's store size as end-of-run levels.
fn storage_levels(rec: &mut Recorder, session: &Session) {
    let bytes = session.checkpoint().map_or(0, |s| s.approx_bytes());
    let tuples = session.storage().map_or(0, |s| s.total());
    rec.level("storage.tuples", tuples as f64);
    rec.level("storage.snapshot_bytes", bytes as f64);
}

/// Link churn with at most `max_down` links down at once: each event is a
/// metric change on an up link (probability `metric_frac`), or the failure
/// of an up link or the recovery of a down one.  Which link and which kind
/// of event come from a generator fixed per shape; new costs from the run
/// seed.
#[derive(Debug, Clone)]
pub struct Churn {
    n: u32,
    structure: Rng,
    costs: Rng,
    up: Vec<(u32, u32, i64)>,
    down: Vec<(u32, u32, i64)>,
    max_down: usize,
    metric_frac: f64,
}

impl Churn {
    pub fn new(g: &Graph, costs: Rng, max_down: usize, metric_frac: f64) -> Self {
        Churn {
            n: g.shape.num_nodes(),
            structure: shape_rng("churn"),
            costs,
            up: g.links.clone(),
            down: Vec::new(),
            max_down,
            metric_frac,
        }
    }

    pub fn next_update(&mut self) -> Update {
        let r = &mut self.structure;
        if r.unit() < self.metric_frac {
            let i = r.below(self.up.len());
            let (a, b, old) = self.up[i];
            // Any other cost in 1..=8.
            let new = 1 + (old - 1 + self.costs.between(1, 7)) % 8;
            self.up[i].2 = new;
            return Update::metric_change(a, b, old, new);
        }
        let recover = !self.down.is_empty() && (self.down.len() >= self.max_down || r.coin());
        if recover {
            let (a, b, c) = self.down.swap_remove(r.below(self.down.len()));
            self.up.push((a, b, c));
            Update::link_up(a, b, c)
        } else {
            let (a, b, c) = self.up.swap_remove(r.below(self.up.len()));
            self.down.push((a, b, c));
            Update::link_down(a, b, c)
        }
    }

    /// The links currently up.
    pub fn topology(&self) -> Topology {
        topology_of(self.n, &self.up)
    }
}

// ---------------------------------------------------------------------
// pv_build: cold path-vector builds
// ---------------------------------------------------------------------

pub struct PvBuild {
    seed: u64,
    nodes: u32,
}

pub struct PvBuildState {
    prog: Program,
    telemetry: bool,
    reference: u64,
    last: Session,
}

impl PvBuild {
    pub fn new(seed: u64, scale: Scale) -> Self {
        PvBuild {
            seed,
            nodes: scale.pick(40, 14),
        }
    }

    pub fn inputs(&self) -> Program {
        let g = Graph::tree_with_chords(self.nodes, 2, &mut rng(self.seed, "topology"));
        path_vector_on(&g.topology())
    }
}

impl Workload for PvBuild {
    type State = PvBuildState;

    fn setup(&self, telemetry: bool) -> Result<PvBuildState, String> {
        let prog = self.inputs();
        let last = Session::open(&prog)
            .telemetry(telemetry)
            .build()
            .map_err(err)?;
        Ok(PvBuildState {
            reference: digest(&last.database()),
            prog,
            telemetry,
            last,
        })
    }

    fn op(
        &self,
        st: &mut PvBuildState,
        _: usize,
        _: bool,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let builder = Session::open(&st.prog).telemetry(st.telemetry);
        let session = rec
            .span("update", "build", |_| builder.build())
            .map_err(err)?;
        if rec.traced() {
            rec.attach(Probe::of(&session.metrics()));
        }
        if digest(&session.database()) != st.reference {
            return Err("a build differs from the first build".into());
        }
        st.last = session;
        Ok(())
    }

    fn finish(&self, st: &mut PvBuildState, rec: &mut Recorder) -> Result<(), String> {
        let generic = Session::open(&st.prog)
            .native_ops(false)
            .build()
            .map_err(err)?;
        if digest(&generic.database()) != st.reference {
            return Err("the native build differs from the native_ops(false) build".into());
        }
        if rec.traced() {
            rec.level("safety.analyze_ms", analyze_ms(&st.prog)?);
            storage_levels(rec, &st.last);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// pv_churn: single-update commits under bounded failures
// ---------------------------------------------------------------------

pub struct PvChurn {
    seed: u64,
    nodes: u32,
    round: usize,
    check_every: usize,
}

pub struct PvChurnState {
    session: Session,
    start: EngineSnapshot,
    churn0: Churn,
    churn: Churn,
}

impl PvChurn {
    pub fn new(seed: u64, scale: Scale) -> Self {
        PvChurn {
            seed,
            nodes: scale.pick(40, 10),
            round: scale.pick(60, 20),
            check_every: scale.pick(20, 10),
        }
    }

    pub fn inputs(&self) -> (Topology, Churn) {
        let g = Graph::tree_with_chords(self.nodes, 2, &mut rng(self.seed, "topology"));
        let churn = Churn::new(&g, rng(self.seed, "churn"), 2, 0.3);
        (g.topology(), churn)
    }

    fn check(&self, st: &PvChurnState) -> Result<(), String> {
        let want = ndlog::eval_program(&path_vector_on(&st.churn.topology())).map_err(err)?;
        if st.session.database() != want {
            return Err("the session differs from a from-scratch evaluation".into());
        }
        Ok(())
    }
}

impl Workload for PvChurn {
    type State = PvChurnState;

    fn setup(&self, telemetry: bool) -> Result<PvChurnState, String> {
        let (topo, churn) = self.inputs();
        let session = Session::open(&path_vector_on(&topo))
            .telemetry(telemetry)
            .build()
            .map_err(err)?;
        Ok(PvChurnState {
            start: session.checkpoint().ok_or("no checkpoint")?,
            session,
            churn0: churn.clone(),
            churn,
        })
    }

    fn round(&self) -> usize {
        self.round
    }

    fn rewind(&self, st: &mut PvChurnState) -> Result<(), String> {
        st.churn = st.churn0.clone();
        st.session.restore(&st.start).map_err(err)
    }

    fn op(
        &self,
        st: &mut PvChurnState,
        i: usize,
        first: bool,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let u = st.churn.next_update();
        rec.call("update", "commit", &mut st.session, Session::metrics, |s| {
            s.txn().push(u).commit()
        })
        .map_err(err)?;
        if first && (i + 1).is_multiple_of(self.check_every) {
            self.check(st)?;
        }
        Ok(())
    }

    fn finish(&self, st: &mut PvChurnState, rec: &mut Recorder) -> Result<(), String> {
        self.check(st)?;
        if rec.traced() {
            rec.level(
                "safety.analyze_ms",
                analyze_ms(&path_vector_on(&st.churn.topology()))?,
            );
            storage_levels(rec, &st.session);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// reach_mixed: point queries beside link churn on one session
// ---------------------------------------------------------------------

pub struct ReachMixed {
    seed: u64,
    nodes: u32,
    p: f64,
    round: usize,
}

pub struct ReachMixedState {
    session: Session,
    start: EngineSnapshot,
    stream0: ReachStream,
    stream: ReachStream,
}

/// One reach_mixed operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ReachOp {
    Query(u32, u32),
    Commit(Update),
}

/// Every `COMMIT_EVERY`th reach_mixed operation is a commit.
const COMMIT_EVERY: usize = 10;

/// The reach_mixed operations: point queries on distinct node pairs, and
/// in every tenth place a link failure or recovery with at most 3 links
/// down.  The fixed interleaving makes every round, and every seed, hold
/// exactly 10% commits.
#[derive(Debug, Clone)]
pub struct ReachStream {
    graph: Graph,
    churn: Churn,
    pairs: Rng,
    ops: usize,
}

impl ReachStream {
    pub fn next_op(&mut self) -> ReachOp {
        self.ops += 1;
        if self.ops.is_multiple_of(COMMIT_EVERY) {
            return ReachOp::Commit(self.churn.next_update());
        }
        let n = self.graph.shape.num_nodes() as usize;
        let s = self.pairs.below(n);
        let d = (s + 1 + self.pairs.below(n - 1)) % n;
        ReachOp::Query(self.graph.node(s as u32), self.graph.node(d as u32))
    }
}

impl ReachMixed {
    pub fn new(seed: u64, scale: Scale) -> Self {
        ReachMixed {
            seed,
            nodes: scale.pick(150, 20),
            p: scale.pick(0.02, 0.15),
            round: 20,
        }
    }

    pub fn inputs(&self) -> ReachStream {
        let shape = Topology::random_connected(self.nodes, self.p, 1, SHAPE_SEED);
        let graph = Graph::new(shape, &mut rng(self.seed, "topology"), 1);
        ReachStream {
            churn: Churn::new(&graph, rng(self.seed, "churn"), 3, 0.0),
            graph,
            pairs: shape_rng("pairs"),
            ops: 0,
        }
    }
}

impl Workload for ReachMixed {
    type State = ReachMixedState;

    fn setup(&self, telemetry: bool) -> Result<ReachMixedState, String> {
        let stream = self.inputs();
        let session = Session::open(&reachability_on(&stream.graph.topology()))
            .telemetry(telemetry)
            .build()
            .map_err(err)?;
        Ok(ReachMixedState {
            start: session.checkpoint().ok_or("no checkpoint")?,
            session,
            stream0: stream.clone(),
            stream,
        })
    }

    fn round(&self) -> usize {
        self.round
    }

    fn rewind(&self, st: &mut ReachMixedState) -> Result<(), String> {
        st.stream = st.stream0.clone();
        st.session.restore(&st.start).map_err(err)
    }

    fn op(
        &self,
        st: &mut ReachMixedState,
        _: usize,
        _: bool,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        match st.stream.next_op() {
            ReachOp::Commit(u) => {
                rec.call("update", "commit", &mut st.session, Session::metrics, |s| {
                    s.txn().push(u).commit()
                })
                .map_err(err)?;
            }
            ReachOp::Query(s, d) => {
                let tuple = [Value::Addr(s), Value::Addr(d)];
                let q = Query::point("reachable", &tuple);
                let res = rec
                    .call("query", "query", &mut st.session, Session::metrics, |s| {
                        s.query(&q)
                    })
                    .map_err(err)?;
                let stats = res.stats;
                for (k, v) in [
                    ("query_derivations", stats.derivations),
                    ("query_seeded", stats.seeded),
                    ("query_iterations", stats.iterations),
                    ("query_demanded", stats.demanded),
                    ("query_answers", stats.answers),
                    ("query_rewritten", usize::from(stats.rewritten)),
                ] {
                    rec.note(k, v as f64);
                }
                if res.is_empty() == st.session.contains("reachable", &tuple) {
                    return Err(format!("query {q} disagrees with Session::contains"));
                }
            }
        }
        Ok(())
    }

    fn finish(&self, st: &mut ReachMixedState, rec: &mut Recorder) -> Result<(), String> {
        let want =
            ndlog::eval_program(&reachability_on(&st.stream.churn.topology())).map_err(err)?;
        if st.session.database() != want {
            return Err("the session differs from a from-scratch evaluation".into());
        }
        if rec.traced() {
            rec.level(
                "safety.analyze_ms",
                analyze_ms(&reachability_on(&st.stream.churn.topology()))?,
            );
            storage_levels(rec, &st.session);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// dist_lossy: distributed convergence over lossy links with faults
// ---------------------------------------------------------------------

pub struct DistLossy {
    seed: u64,
    nodes: u32,
    chords: usize,
    events: u32,
    crashes: u32,
    round: usize,
}

pub struct DistLossyState {
    graph: Graph,
    topo: Topology,
    prog: Program,
    telemetry: bool,
    first: Vec<SimStats>,
    last: Option<DistRuntime>,
}

/// The inputs of one dist_lossy run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistRun {
    pub links: Vec<LinkSchedule>,
    pub crashes: Vec<netsim::CrashSchedule>,
    pub sim_seed: u64,
}

impl DistLossy {
    pub fn new(seed: u64, scale: Scale) -> Self {
        DistLossy {
            seed,
            nodes: scale.pick(16, 8),
            chords: scale.pick(3, 1),
            events: scale.pick(12, 4),
            crashes: scale.pick(2, 1),
            round: scale.pick(8, 2),
        }
    }

    pub fn graph(&self) -> Graph {
        Graph::tree_with_chords(self.nodes, self.chords, &mut rng(self.seed, "topology"))
    }

    /// The inputs of run `i`: the link churn and crash/restart schedules
    /// every run shares, drawn in shape space, and the run's own simulator
    /// seed (loss, duplication and jitter), drawn from the run seed.  With
    /// one schedule, a round's runs are alike and its median convergence
    /// time does not hinge on which schedule lands in the middle.
    pub fn run_inputs(&self, g: &Graph, i: usize) -> DistRun {
        let s = shape_rng("dist schedule").next_u64();
        let links = g
            .shape
            .random_churn_schedule_mix(self.events, 50, 40, s, 0.3, 8);
        let crashes = g.shape.crash_restart_schedule(self.crashes, 100, 120, s);
        DistRun {
            links: links
                .into_iter()
                .map(|l| LinkSchedule {
                    a: g.node(l.a),
                    b: g.node(l.b),
                    ..l
                })
                .collect(),
            crashes: crashes
                .into_iter()
                .map(|c| netsim::CrashSchedule {
                    node: g.node(c.node),
                    ..c
                })
                .collect(),
            sim_seed: rng(self.seed, &format!("run{i}")).next_u64(),
        }
    }
}

impl Workload for DistLossy {
    type State = DistLossyState;

    fn setup(&self, telemetry: bool) -> Result<DistLossyState, String> {
        let graph = self.graph();
        let topo = graph.topology();
        let prog = path_vector_on(&topo);
        let builder = Session::open(&prog).checkpoint_every(16);
        DistRuntime::open(&builder, &topo, SimConfig::default()).map_err(err)?;
        Ok(DistLossyState {
            graph,
            topo,
            prog,
            telemetry,
            first: Vec::new(),
            last: None,
        })
    }

    fn round(&self) -> usize {
        self.round
    }

    fn op(
        &self,
        st: &mut DistLossyState,
        i: usize,
        first: bool,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let run = self.run_inputs(&st.graph, i);
        let cfg = SimConfig {
            loss: 0.1,
            duplication: 0.05,
            jitter: 2,
            seed: run.sim_seed,
            ..Default::default()
        };
        let builder = Session::open(&st.prog)
            .checkpoint_every(16)
            .telemetry(st.telemetry);
        let topo = &st.topo;
        let (rt, stats) = rec.span("runtime", "converge", |rec| {
            let mut rt = rec
                .span("runtime", "open", |_| {
                    DistRuntime::open(&builder, topo, cfg)
                })
                .map_err(err)?;
            rt.schedule_links(&run.links);
            rt.schedule_crashes(&run.crashes);
            let stats = rec.call("runtime", "run", &mut rt, DistRuntime::metrics, |rt| {
                rt.run()
            });
            for (k, v) in [
                ("netsim_events", stats.events),
                ("netsim_dropped", stats.dropped),
                ("netsim_duplicated", stats.duplicated),
                ("netsim_end_time", stats.end_time),
                ("netsim_messages", stats.messages),
                ("netsim_converge_ticks", stats.last_change),
            ] {
                rec.note(k, v as f64);
            }
            Ok::<_, String>((rt, stats))
        })?;
        if !stats.quiescent {
            return Err(format!("run {i} did not quiesce"));
        }
        if first {
            let final_topo = LinkSchedule::final_topology(&run.links, &st.topo);
            let want = Session::open(&path_vector_on(&final_topo))
                .build()
                .map_err(err)?
                .database();
            let got = rt.global_database();
            for pred in ["path", "bestPathCost", "bestPath"] {
                if !want.relation(pred).eq(got.relation(pred)) {
                    return Err(format!(
                        "run {i}: {pred} differs from a centralized session"
                    ));
                }
            }
            st.first.push(stats);
        } else if st.first.get(i) != Some(&stats) {
            return Err(format!("run {i} repeated with different simulator stats"));
        }
        st.last = Some(rt);
        Ok(())
    }

    fn finish(&self, st: &mut DistLossyState, rec: &mut Recorder) -> Result<(), String> {
        if rec.traced() {
            rec.level("safety.analyze_ms", analyze_ms(&st.prog)?);
            if let Some(rt) = &st.last {
                rec.level(
                    "runtime.snapshot_bytes",
                    gauge_sum(&rt.metrics(), "runtime_node_snapshot_bytes"),
                );
                rec.level("storage.tuples", rt.global_database().total() as f64);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// mc_churn: model checking every interleaving of a churn schedule
// ---------------------------------------------------------------------

pub struct McChurn {
    seed: u64,
    nodes: u32,
    chords: usize,
    batches: usize,
}

pub struct McChurnState {
    prog: Program,
    ts: ChurnTs,
    states: Option<usize>,
}

impl McChurn {
    pub fn new(seed: u64, scale: Scale) -> Self {
        McChurn {
            seed,
            nodes: scale.pick(10, 7),
            chords: scale.pick(2, 1),
            batches: scale.pick(6, 3),
        }
    }

    /// The program and its schedule: single-update batches on distinct
    /// links (so every interleaving is valid), cycling through link
    /// failure, metric change, and the recovery of a link that starts down.
    /// The links are chosen in shape space; costs come from the run seed.
    pub fn inputs(&self) -> (Program, Vec<(String, Vec<Update>)>) {
        let mut r = rng(self.seed, "topology");
        let g = Graph::tree_with_chords(self.nodes, self.chords, &mut r);
        let mut links = g.links.clone();
        let mut live = g.topology();
        let mut pick = shape_rng("mc batches");
        let mut batches = Vec::new();
        for j in 0..self.batches {
            let (a, b, c) = links.swap_remove(pick.below(links.len()));
            let (label, u) = match j % 3 {
                0 => (format!("down {a}-{b}"), Update::link_down(a, b, c)),
                1 => {
                    let new = 1 + (c - 1 + r.between(1, 7)) % 8;
                    (format!("cost {a}-{b}"), Update::metric_change(a, b, c, new))
                }
                _ => {
                    live.remove_edge(a, b);
                    (format!("up {a}-{b}"), Update::link_up(a, b, c))
                }
            };
            batches.push((label, vec![u]));
        }
        (path_vector_on(&live), batches)
    }
}

/// §2.2 loop freedom, §3.1 bestPathStrong, and `bestPath` ⊆ `bestPathCost`.
fn route_validity(s: &ChurnState) -> bool {
    let db = s.database();
    let simple = db.relation("path").all(|t| {
        let p = t[2].as_list().unwrap_or(&[]);
        let mut seen = BTreeSet::new();
        p.iter().all(|n| seen.insert(n)) && p.first() == Some(&t[0]) && p.last() == Some(&t[1])
    });
    let strong = db.relation("bestPath").all(|b| {
        db.relation("path")
            .filter(|p| p[0] == b[0] && p[1] == b[1])
            .all(|p| p[3] >= b[3])
    });
    let consistent = db.relation("bestPath").all(|b| {
        db.contains(
            "bestPathCost",
            &vec![b[0].clone(), b[1].clone(), b[3].clone()],
        )
    });
    simple && strong && consistent
}

type CallLog = RefCell<Vec<(&'static str, (Instant, Instant), u64, Probe)>>;

/// Times every `successors` call of the wrapped system into `log`.
struct TimedTs<'a> {
    inner: &'a ChurnTs,
    log: &'a CallLog,
}

impl TransitionSystem for TimedTs<'_> {
    type State = ChurnState;

    fn initial(&self) -> Vec<ChurnState> {
        self.inner.initial()
    }

    fn successors(&self, s: &ChurnState) -> Vec<(String, ChurnState)> {
        let a0 = allocs();
        let t0 = Instant::now();
        let out = self.inner.successors(s);
        let t1 = Instant::now();
        let mut work = Probe::default();
        work.add("mc_transitions", out.len() as f64);
        let n = allocs() - a0;
        self.log
            .borrow_mut()
            .push(("successors", (t0, t1), n, work));
        out
    }
}

impl Workload for McChurn {
    type State = McChurnState;

    fn setup(&self, _telemetry: bool) -> Result<McChurnState, String> {
        let (prog, batches) = self.inputs();
        let ts = ChurnTs::new(&prog, batches).map_err(err)?;
        Ok(McChurnState {
            prog,
            ts,
            states: None,
        })
    }

    fn op(
        &self,
        st: &mut McChurnState,
        _: usize,
        _: bool,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let opts = ExploreOptions::default();
        let ts = &st.ts;
        let verdict = rec.span("mc", "check", |rec| {
            if !rec.traced() {
                return check_invariant(ts, opts, route_validity);
            }
            let log = CallLog::default();
            let timed = TimedTs {
                inner: ts,
                log: &log,
            };
            let verdict = check_invariant(&timed, opts, |s| {
                let a0 = allocs();
                let t0 = Instant::now();
                let ok = route_validity(s);
                let span = (t0, Instant::now());
                let n = allocs() - a0;
                log.borrow_mut()
                    .push(("invariant", span, n, Probe::default()));
                ok
            });
            for (name, span, allocs, work) in log.into_inner() {
                rec.record("mc", name, span, allocs, work);
            }
            verdict
        });
        let states = verdict.map_err(|t| format!("route validity fails after {:?}", t.labels))?;
        rec.note("mc_states", states as f64);
        if st.ts.truncated() {
            return Err(format!("exploration was pruned: {:?}", st.ts.prune_error()));
        }
        if *st.states.get_or_insert(states) != states {
            return Err("the state count changed between repeats".into());
        }
        Ok(())
    }

    fn finish(&self, st: &mut McChurnState, rec: &mut Recorder) -> Result<(), String> {
        if rec.traced() {
            rec.level("safety.analyze_ms", analyze_ms(&st.prog)?);
        }
        Ok(())
    }
}
