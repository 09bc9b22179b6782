//! The distributed NDlog engine (arc 7 of the paper's Figure 1).
//!
//! Mirrors the P2/declarative-networking execution model:
//!
//! 1. the program is **localized** ([`ndlog::localize`]) so every rule body
//!    is evaluable at one node;
//! 2. each node stores the tuples whose location attribute names it;
//! 3. each node runs an [`IncrementalEngine`] and ships rule heads whose
//!    location attribute names another node as simulator messages;
//! 4. distributed convergence = simulator quiescence.
//!
//! Unlike the epoch model the paper's experiments used (recompute the world
//! on every change), topology churn is absorbed **incrementally**: a
//! [`netsim::Event::LinkChange`] retracts or re-asserts the node's `link`
//! facts toward that neighbor, a [`netsim::Event::MetricChange`] recosts
//! them in place (first-class metric churn — one retract+assert batch, no
//! linkless intermediate state), the engine propagates the tuple deltas
//! (counting / z-set, see [`ndlog::incremental`]), and the node ships signed
//! [`TupleMsg`]s — assertions *and retractions* — to the affected owners.
//! Receivers track per-neighbor provenance counts, so a tuple asserted by
//! two neighbors survives one retraction, and a link failure purges exactly
//! the state learned over that link (soft-state teardown); on recovery both
//! sides re-ship their currently visible tuples.
//!
//! # Batch windows
//!
//! Construction goes through the unified churn API:
//! [`DistRuntime::open`] consumes an [`ndlog::update::SessionBuilder`], and
//! its [`batch_window`](ndlog::update::SessionBuilder::batch_window) knob
//! becomes a per-node **delay-and-batch window**: instead of running
//! maintenance per message, a node buffers incoming tuple deltas and flushes
//! them as *one merged batch* when the window timer fires.  Maintenance is
//! amortized across simultaneous deltas and transient oscillations net out
//! before they are ever shipped, cutting message churn during convergence
//! (EXP‑12 quantifies this).  Link status and metric events force an
//! immediate flush first — session/purge bookkeeping and link-fact recosts
//! must observe a consistent engine, not one with deltas still buffered.
//! Windowing changes *when* maintenance runs, never what the network
//! converges to: the quiescent database is byte-identical at every window
//! size (pinned by `tests/properties.rs`).
//!
//! # Fault tolerance
//!
//! Links are **unreliable** and nodes **crash**: the runtime carries its own
//! reliable-delivery layer and a crash–restart recovery path, so the
//! quiescent database still coincides with centralized evaluation over the
//! *final* topology under message loss, duplication, reordering, and node
//! failure (EXP‑15 and `tests/properties.rs` pin this).
//!
//! * **Ack/retransmit.**  Every data message carries a cumulative ack for
//!   the reverse direction; pure [`Msg::Ack`]s are sent after a short delay
//!   when no data flows back.  Unacked messages sit in a per-link
//!   retransmit queue replayed go-back-N style on a retransmission timeout
//!   (exponential backoff, sim-clock driven, deterministic under the
//!   simulator's seed).
//! * **Sessions.**  Each sender→receiver direction is scoped by a
//!   *sender-chosen monotonic session*: the sender bumps its session on
//!   every link recovery (and mints them above `incarnation << 32` after a
//!   restart), clears its retransmit state, and re-ships its exported view;
//!   the receiver pins the highest session seen, purging the neighbor's
//!   provenance at each boundary.  Anything still in flight from an older
//!   session is discarded on delivery.
//! * **Reordering.**  Within a session, sequence numbers restore per-link
//!   FIFO; a gap triggers a NACK for the missing message, and later
//!   arrivals wait in a reorder buffer **bounded** by `REORDER_CAP` —
//!   overflow makes the receiver force a session reset ([`Msg::Reset`])
//!   instead of growing without bound.  Duplicates (loss-recovery replays
//!   or the network's own duplication) are suppressed by the same sequence
//!   space.
//! * **Flow control.**  At most [`SEND_WINDOW`] unacked messages are in
//!   flight per link (strictly below `REORDER_CAP`), so a receiver's
//!   reorder buffer cannot overflow from loss, reordering, or duplication
//!   alone; bulk re-ships drain through the window instead of bursting
//!   past the receiver's bound (which would force reset → re-ship → reset
//!   forever at high loss).
//! * **Crash/restart.**  A crash wipes volatile state (engine, links,
//!   timers, local view); neighbors observe link-down and purge, exactly as
//!   on a link flap.  On restart the node either **warm-boots** from its
//!   last versioned in-memory snapshot ([`ndlog::EngineSnapshot`] plus the
//!   runtime's provenance maps, taken on checkpoint ticks — see
//!   [`SessionBuilder::checkpoint_every`](ndlog::update::SessionBuilder::checkpoint_every))
//!   or **cold-boots** from its genesis facts, then rejoins as the
//!   simulator re-delivers link-up and metric re-sync events.

use fvn_telemetry::{Counter, Gauge, Snapshot, Telemetry};
use ndlog::ast::Program;
use ndlog::eval::Database;
use ndlog::incremental::{BatchStats, EngineSnapshot, IncrementalEngine, RelDelta};
use ndlog::localize::localize_program;
use ndlog::query::{Query, QueryEngine, QueryResult};
use ndlog::safety::analyze;
use ndlog::symbols::RelId;
use ndlog::update::{Session, SessionBuilder};
use ndlog::value::{SharedTuple, Value};
use ndlog::{NdlogError, Result};
use netsim::{
    Context, CrashSchedule, Event, LinkSchedule, Protocol, SimConfig, SimStats, Simulator, Time,
    Topology,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The relation whose facts the runtime retracts and re-asserts on link
/// change events: `link(@from, to, cost)`, the standard input relation of
/// the paper's programs.
pub const LINK_PRED: &str = "link";

/// Bound on the per-link reorder buffer.  A receiver holding this many
/// out-of-order messages forces a session reset instead of buffering more —
/// the sender re-ships its exported view, which is idempotent.
pub const REORDER_CAP: usize = 64;

/// Sender-side flow-control window: at most this many unacked messages in
/// flight per link; further traffic queues in the retransmit map and is
/// transmitted as acks slide the window.  Strictly below [`REORDER_CAP`],
/// so a receiver's reorder buffer can never overflow from loss,
/// reordering, or duplication alone — without this bound, a bulk re-ship
/// larger than the reorder cap livelocks at high loss (any early drop in
/// the burst overflows the receiver, which forces a session reset, which
/// triggers another full-view burst, forever).
pub const SEND_WINDOW: usize = 32;

/// Cap on retransmission-timeout doubling (`rto_base << cap` at most).
const RTO_BACKOFF_CAP: u32 = 6;

/// A shipped tuple, signed: an assertion or a retraction.
///
/// The wire format is **interned**: the relation travels as its dense
/// [`RelId`] and the tuple as a [`SharedTuple`] handle.  Every node's engine
/// is cloned from one compiled prototype, so ids agree network-wide and no
/// relation name is allocated, compared, or parsed per message; names are
/// resolved only at the receiving node's local-view boundary (its
/// [`Database`], which tests and experiments read).
///
/// Messages are scoped to a sender-chosen **link session** and FIFO-ordered
/// within it by `seq`; `ack_session`/`ack` piggyback the sender's cumulative
/// receive state for the reverse direction (every seq below `ack` in
/// `ack_session` is acknowledged).  See the [module docs](self) for the
/// full reliable-delivery protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleMsg {
    /// Interned relation id (network-wide: all engines share one prototype).
    pub rel: RelId,
    /// The tuple (location attribute included), as a shared handle.
    pub tuple: SharedTuple,
    /// True to assert, false to retract.
    pub assert: bool,
    /// Link session (per sender→receiver direction, sender-chosen).
    pub session: u64,
    /// FIFO sequence number within the session.
    pub seq: u64,
    /// Piggybacked: the session this ack refers to (reverse direction).
    pub ack_session: u64,
    /// Piggybacked cumulative ack: all seqs `< ack` in `ack_session`.
    pub ack: u64,
}

/// A runtime wire message: data tuples plus the reliable-delivery control
/// plane.  Control messages are fire-and-forget (never retransmitted); every
/// retry loop is driven by the data path's retransmission timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// A signed tuple (assertion or retraction), with a piggybacked ack.
    Tuple(TupleMsg),
    /// Standalone cumulative ack (sent on a short delay when no data
    /// message flows back to carry the piggyback).
    Ack {
        /// The receive session being acknowledged.
        session: u64,
        /// All seqs `< ack` in `session` are acknowledged.
        ack: u64,
    },
    /// Gap report: the receiver is missing `want` (and holds later seqs in
    /// its reorder buffer); the sender replays just that message.
    Nack {
        /// The receive session the gap is in.
        session: u64,
        /// The missing sequence number.
        want: u64,
    },
    /// Receiver-forced session restart (reorder-buffer overflow, or a
    /// reminder thereof): the sender of session `session` must start a new
    /// session and re-ship its exported view.
    Reset {
        /// The session being torn down.
        session: u64,
    },
}

/// Per-neighbor reliable-link state (both directions of one adjacency).
#[derive(Debug, Default)]
struct LinkState {
    // --- transmit side ---
    /// Session our outgoing messages are stamped with.
    tx_session: u64,
    /// Next outgoing sequence number (resets per session).
    next_seq: u64,
    /// Unacked messages, by seq (go-back-N replay on RTO).  Entries at or
    /// past `sent_next` are queued behind the flow-control window and have
    /// not been transmitted yet.
    retx: BTreeMap<u64, TupleMsg>,
    /// Seqs below this have been transmitted at least once (resets per
    /// session).  `pump` transmits `[sent_next, oldest_unacked +
    /// SEND_WINDOW)` as acks slide the window.
    sent_next: u64,
    /// Consecutive RTO firings without ack progress (exponent, capped).
    backoff: u32,
    /// Outstanding RTO timer tag, if armed.
    rto_tag: Option<u64>,
    // --- receive side ---
    /// Highest session seen from this neighbor (pinned; lower = stale).
    rx_session: u64,
    /// Next expected incoming seq within `rx_session`.
    rx_expected: u64,
    /// Out-of-order messages held until their predecessors arrive.
    reorder: BTreeMap<u64, TupleMsg>,
    /// The seq we last NACKed (one NACK per gap, not per arrival).
    nacked: Option<u64>,
    /// True when received data has not been acked yet.
    ack_owed: bool,
    /// Outstanding delayed-ack timer tag, if armed.
    ack_tag: Option<u64>,
    /// Set after we forced a reset of this (old) session: re-prod the
    /// sender if messages from it keep arriving.
    reset_wanted: Option<u64>,
}

impl LinkState {
    fn fresh(session_base: u64) -> Self {
        LinkState {
            tx_session: session_base,
            ..Default::default()
        }
    }
}

/// What a node-level timer means when it fires.  Timers are keyed by a
/// monotonic tag in `NdlogNode::timers`; cancelling is a map remove, and a
/// fired tag with no entry is stale (cancelled or from before a crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    /// Batch-window flush.
    Flush,
    /// Retransmission timeout toward a neighbor.
    Rto { neighbor: u32 },
    /// Delayed standalone ack toward a neighbor.
    AckDelay { neighbor: u32 },
    /// Checkpoint tick (snapshot the node's state).
    Checkpoint,
}

/// Mint a timer: register its meaning under a fresh tag and schedule it.
fn arm_timer(
    timers: &mut BTreeMap<u64, TimerKind>,
    next_timer: &mut u64,
    ctx: &mut Context<Msg>,
    kind: TimerKind,
    delay: Time,
) -> u64 {
    let tag = *next_timer;
    *next_timer += 1;
    timers.insert(tag, kind);
    ctx.set_timer(delay, tag);
    tag
}

/// Snapshot format v1: everything a node needs to warm-boot after a crash —
/// the engine's versioned [`EngineSnapshot`] plus the runtime's own
/// soft-state maps (sent set, per-neighbor provenance counts, suspended
/// link facts).  The local view is the engine's visible store, so the
/// engine snapshot already carries it.  Taken on checkpoint ticks;
/// survives the crash (it models durable storage).
#[derive(Clone)]
struct NodeCheckpoint {
    engine: EngineSnapshot,
    sent: BTreeSet<(u32, RelId, SharedTuple)>,
    received: BTreeMap<(u32, RelId, SharedTuple), i64>,
    suspended_links: BTreeMap<u32, Vec<SharedTuple>>,
}

/// One NDlog engine instance (runs on one simulated node).
pub struct NdlogNode {
    me: u32,
    engine: IncrementalEngine,
    /// Interned id of [`LINK_PRED`] (resolved once at compile time; `None`
    /// when the program has no `link` relation).
    link_rel: Option<RelId>,
    /// Location-attribute position per relation id, shared by every node.
    location: Arc<Vec<Option<usize>>>,
    /// This node's ground facts (applied at `Start`).
    base: Vec<RelDelta>,
    /// Tuples currently asserted to a remote owner.
    sent: BTreeSet<(u32, RelId, SharedTuple)>,
    /// Provenance counts of received assertions, by sending neighbor.
    received: BTreeMap<(u32, RelId, SharedTuple), i64>,
    /// Link facts toward currently-down neighbors, kept for re-assertion.
    suspended_links: BTreeMap<u32, Vec<SharedTuple>>,
    /// Reliable-delivery state per neighbor.
    links: BTreeMap<u32, LinkState>,
    /// Meaning of every outstanding timer, by tag.
    timers: BTreeMap<u64, TimerKind>,
    /// Next timer tag to mint.
    next_timer: u64,
    /// Outstanding batch-window flush timer, if armed.
    flush_tag: Option<u64>,
    /// Outstanding checkpoint timer, if armed.
    checkpoint_tag: Option<u64>,
    /// Floor for sender-chosen sessions (`incarnation << 32`): sessions
    /// minted after a restart never collide with a previous lifetime's.
    session_base: u64,
    /// True between a crash and the matching restart.
    dead: bool,
    /// Pristine engine clone (pre-facts) for cold restarts.
    pristine: Box<IncrementalEngine>,
    /// The node's genesis facts (kept across `Start` for cold restarts).
    genesis: Vec<RelDelta>,
    /// Last checkpoint taken (models durable storage: survives crashes).
    checkpoint: Option<NodeCheckpoint>,
    /// Checkpoint cadence in ticks (0 = never checkpoint).
    checkpoint_every: Time,
    /// Base retransmission timeout (doubled per backoff step).
    rto_base: Time,
    /// Delay before a standalone ack when no data flows back.
    ack_delay: Time,
    /// Reorder-buffer bound (defaults to [`REORDER_CAP`]).
    reorder_cap: usize,
    /// Cumulative count of our messages acked by peers (gauge source).
    acked: u64,
    /// Delay-and-batch window in ticks (0 = maintain per event).
    batch_window: Time,
    /// Deltas buffered until the window flush timer fires.
    pending: Vec<RelDelta>,
    /// Cumulative maintenance counters (across every batch this node ran).
    applied: BatchStats,
    /// Number of maintenance batches this node ran.
    batches: u64,
    /// Per-node telemetry handles (no-op sinks when telemetry is off).
    metrics: NodeMetrics,
}

/// Resolved per-node metric handles — one `{node="i"}` series per node.
/// `sent`/`received` count *data* messages (control traffic is visible in
/// [`SimStats::messages`]); `retransmits`, `dup_suppressed`, `acked_depth`,
/// `snapshot_bytes`, and `reships` instrument the reliable-delivery and
/// recovery layers.  All handles are the no-op sink when the session's
/// telemetry is disabled.
#[derive(Clone, Default)]
struct NodeMetrics {
    sent: Counter,
    received: Counter,
    flushes: Counter,
    queue_depth: Gauge,
    retransmits: Counter,
    dup_suppressed: Counter,
    acked_depth: Gauge,
    snapshot_bytes: Gauge,
    reships: Counter,
}

impl NodeMetrics {
    fn resolve(t: &Telemetry, node: u32) -> Self {
        let series = |family: &str| format!("{family}{{node=\"{node}\"}}");
        NodeMetrics {
            sent: t.counter(&series("runtime_node_sent_total")),
            received: t.counter(&series("runtime_node_received_total")),
            flushes: t.counter(&series("runtime_node_flushes_total")),
            queue_depth: t.gauge(&series("runtime_node_queue_depth")),
            retransmits: t.counter(&series("runtime_node_retransmits_total")),
            dup_suppressed: t.counter(&series("runtime_node_dup_suppressed_total")),
            acked_depth: t.gauge(&series("runtime_node_acked_depth")),
            snapshot_bytes: t.gauge(&series("runtime_node_snapshot_bytes")),
            reships: t.counter(&series("runtime_node_reships_total")),
        }
    }
}

impl NdlogNode {
    /// The node's local view: the engine's visible store, which holds
    /// exactly the tuples homed here or unlocated (tuples homed elsewhere
    /// live on the store's export side).  Empty while the node is dead —
    /// its volatile state is gone.
    pub fn database(&self) -> Database {
        if self.dead {
            Database::new()
        } else {
            self.engine.database()
        }
    }

    /// Cumulative maintenance work across every batch this node ran.
    pub fn maintenance_stats(&self) -> BatchStats {
        self.applied
    }

    /// Number of maintenance batches this node ran (with a batch window,
    /// many events fold into one batch).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Owner of a tuple by location attribute (`None` when unlocated).
    fn owner_of(&self, rel: RelId, tuple: &[Value]) -> Option<u32> {
        self.location
            .get(rel.index())
            .copied()
            .flatten()
            .and_then(|i| tuple.get(i))
            .and_then(Value::as_addr)
    }

    /// Build the next in-session message toward `to` (acks are stamped at
    /// ship time, in [`ship_all`](Self::ship_all)).
    fn make_msg(&mut self, to: u32, rel: RelId, tuple: SharedTuple, assert: bool) -> TupleMsg {
        let base = self.session_base;
        let ls = self
            .links
            .entry(to)
            .or_insert_with(|| LinkState::fresh(base));
        let msg = TupleMsg {
            rel,
            tuple,
            assert,
            session: ls.tx_session,
            seq: ls.next_seq,
            ack_session: 0,
            ack: 0,
        };
        ls.next_seq += 1;
        msg
    }

    /// Apply a batch of external deltas to the engine and turn the net
    /// changes homed at other nodes into outgoing signed messages.  Runs
    /// entirely on interned ids and shared tuple handles.
    fn absorb(&mut self, deltas: &[RelDelta]) -> Vec<(u32, TupleMsg)> {
        let outcome = self.engine.apply_interned(deltas).unwrap_or_else(|e| {
            // Protocol::handle cannot return errors; the only failures here
            // are data-dependent evaluation bounds.
            panic!(
                "incremental maintenance exceeded its evaluation bounds ({e}); \
                 raise the limits via Session::open(prog).eval_options(..) \
                 before DistRuntime::open"
            )
        });
        self.applied += outcome.stats;
        self.batches += 1;
        let mut outgoing = Vec::new();
        for change in outcome.changes {
            let RelDelta { rel, tuple, delta } = change;
            let Some(owner) = self.owner_of(rel, &tuple).filter(|&o| o != self.me) else {
                continue;
            };
            // While the link is down, neither ship nor record: the neighbor
            // purged our state and recovery re-ships everything still
            // derived.
            if self.suspended_links.contains_key(&owner) {
                continue;
            }
            let key = (owner, rel, tuple.clone());
            if delta > 0 {
                if self.sent.insert(key) {
                    let msg = self.make_msg(owner, rel, tuple, true);
                    outgoing.push((owner, msg));
                }
            } else if self.sent.remove(&key) {
                let msg = self.make_msg(owner, rel, tuple, false);
                outgoing.push((owner, msg));
            }
        }
        outgoing
    }

    /// Ship a batch of data messages: record each in the retransmit queue
    /// (which doubles as the send queue past the flow-control window) and
    /// pump every touched link.
    fn ship_all(&mut self, out: Vec<(u32, TupleMsg)>, ctx: &mut Context<Msg>) {
        let mut touched = BTreeSet::new();
        for (to, msg) in out {
            let Some(ls) = self.links.get_mut(&to) else {
                continue;
            };
            ls.retx.insert(msg.seq, msg);
            touched.insert(to);
        }
        for to in touched {
            self.pump(to, ctx);
        }
    }

    /// Transmit window-eligible queued messages toward `to`: at most
    /// [`SEND_WINDOW`] unacked messages are in flight per link, the rest
    /// wait in the retransmit queue until acks slide the window.  Each
    /// transmission is stamped with the current piggyback ack, and an RTO
    /// timer runs whenever anything is outstanding.
    fn pump(&mut self, to: u32, ctx: &mut Context<Msg>) {
        let Some(ls) = self.links.get_mut(&to) else {
            return;
        };
        let Some((&oldest, _)) = ls.retx.first_key_value() else {
            return;
        };
        let end = oldest + SEND_WINDOW as u64;
        let mut sent_any = false;
        while ls.sent_next < end {
            let Some(m) = ls.retx.get(&ls.sent_next) else {
                break; // nothing left to send (sent_next == next_seq)
            };
            let mut m = m.clone();
            m.ack_session = ls.rx_session;
            m.ack = ls.rx_expected;
            ls.sent_next += 1;
            sent_any = true;
            self.metrics.sent.incr();
            ctx.send(to, Msg::Tuple(m));
        }
        if sent_any {
            // The piggyback serves as the ack; cancel any delayed one.
            ls.ack_owed = false;
            if let Some(t) = ls.ack_tag.take() {
                self.timers.remove(&t);
            }
        }
        if !ls.retx.is_empty() && ls.rto_tag.is_none() {
            let delay = self.rto_base << ls.backoff.min(RTO_BACKOFF_CAP);
            let tag = arm_timer(
                &mut self.timers,
                &mut self.next_timer,
                ctx,
                TimerKind::Rto { neighbor: to },
                delay,
            );
            ls.rto_tag = Some(tag);
        }
    }

    /// Route deltas into the batch window: absorbed immediately when the
    /// window is 0, buffered behind a flush timer otherwise.  This is the
    /// delay-and-batch point — every non-link-status event feeds churn
    /// through here.
    fn enqueue(&mut self, deltas: Vec<RelDelta>, ctx: &mut Context<Msg>) {
        if deltas.is_empty() {
            return;
        }
        ctx.mark_changed();
        self.maybe_arm_checkpoint(ctx);
        if self.batch_window == 0 {
            let out = self.absorb(&deltas);
            self.ship_all(out, ctx);
        } else {
            self.pending.extend(deltas);
            if self.flush_tag.is_none() {
                let tag = arm_timer(
                    &mut self.timers,
                    &mut self.next_timer,
                    ctx,
                    TimerKind::Flush,
                    self.batch_window,
                );
                self.flush_tag = Some(tag);
            }
        }
    }

    /// Apply the buffered window as one merged maintenance batch.  Always
    /// closes the current window (cancelling its timer if still queued).
    fn flush_pending(&mut self, ctx: &mut Context<Msg>) {
        if let Some(tag) = self.flush_tag.take() {
            self.timers.remove(&tag);
        }
        if self.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending);
        ctx.mark_changed();
        self.metrics.flushes.incr();
        let out = self.absorb(&batch);
        self.ship_all(out, ctx);
    }

    /// Re-publish the reorder-buffer depth gauge.  Called at every point
    /// the buffers change — including session teardowns, so the gauge
    /// decays instead of freezing at its last in-session value.
    fn sync_queue_depth(&mut self) {
        if self.metrics.queue_depth.is_live() {
            let depth = self.links.values().map(|l| l.reorder.len()).sum::<usize>();
            self.metrics.queue_depth.set(depth as i64);
        }
    }

    /// Retract everything learned from `neighbor` (soft-state teardown):
    /// drop its provenance counts and return the matching deltas.
    fn purge_from(&mut self, neighbor: u32) -> Vec<RelDelta> {
        let purged: Vec<((u32, RelId, SharedTuple), i64)> = self
            .received
            .range((neighbor, RelId::ZERO, SharedTuple::empty())..)
            .take_while(|((from, _, _), _)| *from == neighbor)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let mut deltas = Vec::with_capacity(purged.len());
        for ((from, rel, tuple), count) in purged {
            self.received.remove(&(from, rel, tuple.clone()));
            deltas.push(RelDelta {
                rel,
                tuple,
                delta: -count,
            });
        }
        deltas
    }

    /// Move our link facts toward `neighbor` out of the engine and into
    /// `suspended_links`, returning the retraction deltas.  No-op if the
    /// neighbor is already suspended.
    fn suspend_link_facts(&mut self, neighbor: u32) -> Vec<RelDelta> {
        if self.suspended_links.contains_key(&neighbor) {
            return Vec::new();
        }
        let mine: Vec<SharedTuple> = match self.link_rel {
            Some(link_rel) => self
                .engine
                .storage()
                .visible_id(link_rel)
                .filter(|t| {
                    t.first() == Some(&Value::Addr(self.me))
                        && t.get(1) == Some(&Value::Addr(neighbor))
                        && self.engine.storage().edb_count_id(link_rel, t) > 0
                })
                .cloned()
                .collect(),
            None => Vec::new(),
        };
        let mut deltas = Vec::with_capacity(mine.len());
        if let Some(link_rel) = self.link_rel {
            for tuple in &mine {
                deltas.push(RelDelta::remove(link_rel, tuple.clone()));
            }
        }
        self.suspended_links.insert(neighbor, mine);
        deltas
    }

    /// Handle a metric change toward `neighbor`: recost our directed link
    /// facts as a retract+assert pair in one batch.  While the link is down
    /// the suspended facts are recosted in place, so recovery re-asserts at
    /// the new cost.
    fn metric_change(&mut self, neighbor: u32, cost: i64) -> Vec<RelDelta> {
        let Some(link_rel) = self.link_rel else {
            return Vec::new();
        };
        let recost = |t: &SharedTuple| -> Option<SharedTuple> {
            // link(@from, to, cost): no cost column means nothing to change.
            if t.get(2) == Some(&Value::Int(cost)) || t.len() < 3 {
                return None;
            }
            let mut new = t.to_tuple();
            new[2] = Value::Int(cost);
            Some(SharedTuple::from(new))
        };
        if let Some(suspended) = self.suspended_links.get_mut(&neighbor) {
            for t in suspended.iter_mut() {
                if let Some(new) = recost(t) {
                    *t = new;
                }
            }
            return Vec::new();
        }
        let mine: Vec<SharedTuple> = self
            .engine
            .storage()
            .visible_id(link_rel)
            .filter(|t| {
                t.first() == Some(&Value::Addr(self.me))
                    && t.get(1) == Some(&Value::Addr(neighbor))
                    && self.engine.storage().edb_count_id(link_rel, t) > 0
            })
            .cloned()
            .collect();
        let mut deltas = Vec::new();
        for t in mine {
            if let Some(new) = recost(&t) {
                deltas.push(RelDelta::remove(link_rel, t));
                deltas.push(RelDelta::insert(link_rel, new));
            }
        }
        deltas
    }

    /// Everything we still derive that is homed at `neighbor`, as fresh
    /// assertions (the neighbor purged our state): the recovery re-ship.
    fn reship_to(&mut self, neighbor: u32) -> Vec<(u32, TupleMsg)> {
        let mut reship = Vec::new();
        for rel in self.engine.storage().relation_ids().collect::<Vec<_>>() {
            for tuple in self.engine.storage().exported_id(rel) {
                if self.owner_of(rel, tuple) == Some(neighbor) {
                    reship.push((rel, tuple.clone()));
                }
            }
        }
        let mut out = Vec::new();
        for (rel, tuple) in reship {
            let key = (neighbor, rel, tuple.clone());
            if self.sent.insert(key) {
                let msg = self.make_msg(neighbor, rel, tuple, true);
                out.push((neighbor, msg));
            }
        }
        self.metrics.reships.add(out.len() as u64);
        out
    }

    /// Link toward `neighbor` went down: retract our link facts, purge what
    /// we learned over the link, forget what we asserted (recovery
    /// re-ships), and tear down the reliable-delivery queues.
    fn link_down(&mut self, neighbor: u32) -> Vec<(u32, TupleMsg)> {
        if self.suspended_links.contains_key(&neighbor) {
            return Vec::new(); // duplicate down event
        }
        let mut deltas = self.suspend_link_facts(neighbor);
        deltas.extend(self.purge_from(neighbor));
        self.sent.retain(|(to, _, _)| *to != neighbor);
        if let Some(ls) = self.links.get_mut(&neighbor) {
            // Keep the session counters (monotonicity across flaps); drop
            // every in-flight queue and its timers.
            ls.retx.clear();
            ls.sent_next = ls.next_seq;
            ls.backoff = 0;
            if let Some(t) = ls.rto_tag.take() {
                self.timers.remove(&t);
            }
            ls.reorder.clear();
            ls.nacked = None;
            ls.ack_owed = false;
            if let Some(t) = ls.ack_tag.take() {
                self.timers.remove(&t);
            }
            ls.reset_wanted = None;
        }
        self.sync_queue_depth();
        self.absorb(&deltas)
    }

    /// Link toward `neighbor` came up: start a fresh send session
    /// (discarding anything in flight from before), restore our suspended
    /// link facts, and re-ship our exported view.  The session bump happens
    /// on *every* up event — even a redundant one — which is safe because
    /// the receiver purges at the session boundary and we re-ship.
    fn link_up(&mut self, neighbor: u32) -> Vec<(u32, TupleMsg)> {
        let base = self.session_base;
        let ls = self
            .links
            .entry(neighbor)
            .or_insert_with(|| LinkState::fresh(base));
        ls.tx_session += 1;
        ls.next_seq = 0;
        ls.retx.clear();
        ls.sent_next = 0;
        ls.backoff = 0;
        if let Some(t) = ls.rto_tag.take() {
            self.timers.remove(&t);
        }
        ls.reorder.clear();
        ls.nacked = None;
        ls.reset_wanted = None;
        self.sent.retain(|(to, _, _)| *to != neighbor);
        let mut deltas = Vec::new();
        if let Some(restored) = self.suspended_links.remove(&neighbor) {
            if let Some(link_rel) = self.link_rel {
                for tuple in restored {
                    deltas.push(RelDelta::insert(link_rel, tuple));
                }
            }
        }
        self.sync_queue_depth();
        let mut out = self.absorb(&deltas);
        out.extend(self.reship_to(neighbor));
        out
    }

    /// Process a cumulative ack (piggybacked or standalone) from `from`.
    fn on_ack(&mut self, from: u32, session: u64, ack: u64, ctx: &mut Context<Msg>) {
        let Some(ls) = self.links.get_mut(&from) else {
            return;
        };
        if session != ls.tx_session {
            return; // ack for a session we have since abandoned
        }
        let kept = ls.retx.split_off(&ack);
        let freed = ls.retx.len();
        ls.retx = kept;
        if freed > 0 {
            ls.backoff = 0;
            self.acked += freed as u64;
            self.metrics.acked_depth.set(self.acked as i64);
        }
        if ls.retx.is_empty() {
            if let Some(t) = ls.rto_tag.take() {
                self.timers.remove(&t);
            }
        } else if freed > 0 {
            // Progress: restart the RTO clock for the new oldest
            // outstanding message instead of timing from the old one
            // (avoids spurious go-back-N while acks are still in flight).
            if let Some(t) = ls.rto_tag.take() {
                self.timers.remove(&t);
            }
            let tag = arm_timer(
                &mut self.timers,
                &mut self.next_timer,
                ctx,
                TimerKind::Rto { neighbor: from },
                self.rto_base,
            );
            ls.rto_tag = Some(tag);
        }
        // A slid window may make queued messages eligible.
        self.pump(from, ctx);
    }

    /// Replay one missing message reported by a receiver-side gap.
    fn on_nack(&mut self, from: u32, session: u64, want: u64, ctx: &mut Context<Msg>) {
        let Some(ls) = self.links.get_mut(&from) else {
            return;
        };
        if session != ls.tx_session {
            return;
        }
        if let Some(m) = ls.retx.get(&want) {
            let mut m = m.clone();
            m.ack_session = ls.rx_session;
            m.ack = ls.rx_expected;
            self.metrics.retransmits.incr();
            self.metrics.sent.incr();
            ctx.send(from, Msg::Tuple(m));
        }
    }

    /// The receiver of `session` overflowed and wants a fresh one: restart
    /// the send side one session up (matching the receiver's pin) and
    /// re-ship the exported view.
    fn on_reset(&mut self, from: u32, session: u64, ctx: &mut Context<Msg>) {
        if self.suspended_links.contains_key(&from) {
            return; // link is down; recovery will restart the session anyway
        }
        {
            let base = self.session_base;
            let ls = self
                .links
                .entry(from)
                .or_insert_with(|| LinkState::fresh(base));
            if session != ls.tx_session {
                return; // stale reset (already honored, or session moved on)
            }
            ls.tx_session = session + 1;
            ls.next_seq = 0;
            ls.retx.clear();
            ls.sent_next = 0;
            ls.backoff = 0;
            if let Some(t) = ls.rto_tag.take() {
                self.timers.remove(&t);
            }
        }
        self.sent.retain(|(to, _, _)| *to != from);
        let out = self.reship_to(from);
        if !out.is_empty() {
            ctx.mark_changed();
        }
        self.ship_all(out, ctx);
    }

    /// Process an incoming data message: session discipline, duplicate
    /// suppression, bounded reordering, then provenance counting.
    fn on_tuple(&mut self, from: u32, msg: TupleMsg, ctx: &mut Context<Msg>) {
        self.on_ack(from, msg.ack_session, msg.ack, ctx);
        let rx_now = self.links.get(&from).map(|l| l.rx_session).unwrap_or(0);
        if msg.session < rx_now {
            // Stale session: its content was purged at the boundary.  If we
            // forced the reset ourselves and the sender has not honored it
            // yet (the Reset may have been lost), prod it again.
            let wants_reset = self
                .links
                .get(&from)
                .is_some_and(|l| l.reset_wanted == Some(msg.session));
            if wants_reset {
                ctx.send(
                    from,
                    Msg::Reset {
                        session: msg.session,
                    },
                );
            }
            return;
        }
        let mut deltas = Vec::new();
        if msg.session > rx_now {
            // Session boundary: purge this neighbor's provenance, pin the
            // new session.
            deltas = self.purge_from(from);
            let base = self.session_base;
            let ls = self
                .links
                .entry(from)
                .or_insert_with(|| LinkState::fresh(base));
            ls.rx_session = msg.session;
            ls.rx_expected = 0;
            ls.reorder.clear();
            ls.nacked = None;
            ls.reset_wanted = None;
        }
        let base = self.session_base;
        let cap = self.reorder_cap.max(1);
        let ls = self
            .links
            .entry(from)
            .or_insert_with(|| LinkState::fresh(base));
        ls.reset_wanted = None;
        if msg.seq > ls.rx_expected {
            if ls.reorder.len() >= cap {
                // Bounded reorder buffer: force a session reset instead of
                // growing without bound.  Purge and pin one session up; the
                // sender re-ships under the matching new session.
                let old = ls.rx_session;
                ls.rx_session = old + 1;
                ls.rx_expected = 0;
                ls.reorder.clear();
                ls.nacked = None;
                ls.reset_wanted = Some(old);
                deltas.extend(self.purge_from(from));
                ctx.send(from, Msg::Reset { session: old });
            } else {
                // Hold it and report the gap (one NACK per gap).
                if ls.reorder.insert(msg.seq, msg).is_some() {
                    self.metrics.dup_suppressed.incr();
                }
                let want = ls.rx_expected;
                if ls.nacked != Some(want) {
                    ls.nacked = Some(want);
                    let session = ls.rx_session;
                    ctx.send(from, Msg::Nack { session, want });
                }
            }
        } else if msg.seq < ls.rx_expected {
            // Duplicate (network duplication or a loss-recovery replay):
            // suppress, but re-ack so the sender can drain its queue.
            self.metrics.dup_suppressed.incr();
            ls.ack_owed = true;
            if ls.ack_tag.is_none() {
                let tag = arm_timer(
                    &mut self.timers,
                    &mut self.next_timer,
                    ctx,
                    TimerKind::AckDelay { neighbor: from },
                    self.ack_delay,
                );
                ls.ack_tag = Some(tag);
            }
        } else {
            // In order: count provenance, then drain the reorder buffer.
            let mut next = Some(msg);
            while let Some(m) = next {
                self.metrics.received.incr();
                ls.rx_expected += 1;
                let TupleMsg {
                    rel, tuple, assert, ..
                } = m;
                let key = (from, rel, tuple.clone());
                if assert {
                    *self.received.entry(key).or_insert(0) += 1;
                    deltas.push(RelDelta {
                        rel,
                        tuple,
                        delta: 1,
                    });
                } else if let Some(c) = self.received.get_mut(&key) {
                    // In-session retract always follows its assert.
                    *c -= 1;
                    if *c == 0 {
                        self.received.remove(&key);
                    }
                    deltas.push(RelDelta {
                        rel,
                        tuple,
                        delta: -1,
                    });
                }
                next = ls.reorder.remove(&ls.rx_expected);
            }
            ls.nacked = None;
            ls.ack_owed = true;
            if ls.ack_tag.is_none() {
                let tag = arm_timer(
                    &mut self.timers,
                    &mut self.next_timer,
                    ctx,
                    TimerKind::AckDelay { neighbor: from },
                    self.ack_delay,
                );
                ls.ack_tag = Some(tag);
            }
        }
        self.sync_queue_depth();
        self.enqueue(deltas, ctx);
    }

    /// Dispatch a fired timer by its registered meaning; a tag with no
    /// entry was cancelled (or predates a crash) and is ignored.
    fn timer_fired(&mut self, tag: u64, ctx: &mut Context<Msg>) {
        let Some(kind) = self.timers.remove(&tag) else {
            return;
        };
        match kind {
            TimerKind::Flush => {
                self.flush_tag = None;
                self.flush_pending(ctx);
            }
            TimerKind::Rto { neighbor } => {
                let Some(ls) = self.links.get_mut(&neighbor) else {
                    return;
                };
                ls.rto_tag = None;
                if ls.retx.is_empty() {
                    return;
                }
                // Go-back-N: replay the transmitted part of the unacked
                // window (entries past `sent_next` were never sent and
                // stay queued behind flow control), re-stamped with the
                // current piggyback ack (which also covers any delayed
                // standalone ack).
                ls.ack_owed = false;
                if let Some(t) = ls.ack_tag.take() {
                    self.timers.remove(&t);
                }
                let (ack_session, ack) = (ls.rx_session, ls.rx_expected);
                let replay: Vec<TupleMsg> = ls
                    .retx
                    .range(..ls.sent_next)
                    .map(|(_, m)| {
                        let mut m = m.clone();
                        m.ack_session = ack_session;
                        m.ack = ack;
                        m
                    })
                    .collect();
                ls.backoff = (ls.backoff + 1).min(RTO_BACKOFF_CAP);
                let delay = self.rto_base << ls.backoff;
                let tag = arm_timer(
                    &mut self.timers,
                    &mut self.next_timer,
                    ctx,
                    TimerKind::Rto { neighbor },
                    delay,
                );
                ls.rto_tag = Some(tag);
                self.metrics.retransmits.add(replay.len() as u64);
                self.metrics.sent.add(replay.len() as u64);
                for m in replay {
                    ctx.send(neighbor, Msg::Tuple(m));
                }
            }
            TimerKind::AckDelay { neighbor } => {
                let Some(ls) = self.links.get_mut(&neighbor) else {
                    return;
                };
                ls.ack_tag = None;
                if ls.ack_owed {
                    ls.ack_owed = false;
                    ctx.send(
                        neighbor,
                        Msg::Ack {
                            session: ls.rx_session,
                            ack: ls.rx_expected,
                        },
                    );
                }
            }
            TimerKind::Checkpoint => {
                self.checkpoint_tag = None;
                self.flush_pending(ctx);
                self.take_checkpoint();
            }
        }
    }

    /// Snapshot the node's state (snapshot format v1; see
    /// [`NodeCheckpoint`]).  The checkpoint survives crashes — it models
    /// durable storage.
    fn take_checkpoint(&mut self) {
        let cp = NodeCheckpoint {
            engine: self.engine.snapshot(),
            sent: self.sent.clone(),
            received: self.received.clone(),
            suspended_links: self.suspended_links.clone(),
        };
        self.metrics
            .snapshot_bytes
            .set(cp.engine.approx_bytes() as i64);
        self.checkpoint = Some(cp);
    }

    /// Arm a one-shot checkpoint timer if checkpointing is enabled and none
    /// is outstanding.  Dirty-flag style: the timer is re-armed by the next
    /// activity after it fires, never by the firing itself — a quiescent
    /// network runs out of checkpoint ticks instead of looping on them.
    fn maybe_arm_checkpoint(&mut self, ctx: &mut Context<Msg>) {
        if self.checkpoint_every > 0 && self.checkpoint_tag.is_none() {
            let tag = arm_timer(
                &mut self.timers,
                &mut self.next_timer,
                ctx,
                TimerKind::Checkpoint,
                self.checkpoint_every,
            );
            self.checkpoint_tag = Some(tag);
        }
    }

    /// Crash: lose all volatile state.  The engine object itself is
    /// replaced on restart; the last checkpoint (durable) survives.
    fn crash(&mut self) {
        self.dead = true;
        self.timers.clear();
        self.next_timer = 0;
        self.flush_tag = None;
        self.checkpoint_tag = None;
        self.pending.clear();
        self.links.clear();
        self.sent.clear();
        self.received.clear();
        self.suspended_links.clear();
        self.metrics.queue_depth.set(0);
    }

    /// Restart after a crash: warm-boot from the last checkpoint if one
    /// exists, else cold-boot from genesis facts.  Either way every link
    /// starts down — the simulator re-delivers link-up and metric re-sync
    /// events for the adjacencies that are actually alive.
    fn restart(&mut self, incarnation: u64, ctx: &mut Context<Msg>) {
        self.dead = false;
        // Sessions minted in this lifetime never collide with a previous
        // one's: peers treat them as fresh and purge at the boundary.
        self.session_base = incarnation << 32;
        ctx.mark_changed();
        if let Some(cp) = self.checkpoint.clone() {
            self.engine
                .restore(&cp.engine)
                .expect("checkpoint snapshot version matches this engine");
            self.sent = cp.sent;
            self.received = cp.received;
            self.suspended_links = cp.suspended_links;
            // The snapshot may believe links are up; until the simulator
            // says otherwise they are all down.  Suspend and purge every
            // neighbor the snapshot knows about, as one batch.
            let mut neighbors: BTreeSet<u32> = self.suspended_links.keys().copied().collect();
            neighbors.extend(self.sent.iter().map(|(to, _, _)| *to));
            neighbors.extend(self.received.keys().map(|(from, _, _)| *from));
            if let Some(link_rel) = self.link_rel {
                let mine: Vec<u32> = self
                    .engine
                    .storage()
                    .visible_id(link_rel)
                    .filter(|t| t.first() == Some(&Value::Addr(self.me)))
                    .filter_map(|t| t.get(1).and_then(Value::as_addr))
                    .filter(|&n| n != self.me)
                    .collect();
                neighbors.extend(mine);
            }
            let mut deltas = Vec::new();
            for n in neighbors {
                deltas.extend(self.suspend_link_facts(n));
                deltas.extend(self.purge_from(n));
                self.sent.retain(|(to, _, _)| *to != n);
            }
            let out = self.absorb(&deltas);
            self.ship_all(out, ctx); // all neighbors suspended: ships nothing
        } else {
            // Cold boot: pristine engine, genesis facts; our own link facts
            // start suspended (every link is down until the simulator says
            // otherwise).
            self.engine = (*self.pristine).clone();
            let mut local = Vec::new();
            for d in self.genesis.clone() {
                let own_link = Some(d.rel) == self.link_rel
                    && d.delta > 0
                    && d.tuple.first() == Some(&Value::Addr(self.me));
                let peer = d
                    .tuple
                    .get(1)
                    .and_then(Value::as_addr)
                    .filter(|&n| n != self.me);
                match (own_link, peer) {
                    (true, Some(n)) => self
                        .suspended_links
                        .entry(n)
                        .or_default()
                        .push(d.tuple.clone()),
                    _ => local.push(d),
                }
            }
            let out = self.absorb(&local);
            self.ship_all(out, ctx);
        }
        self.sync_queue_depth();
        self.maybe_arm_checkpoint(ctx);
    }
}

impl Protocol for NdlogNode {
    type Msg = Msg;

    fn handle(&mut self, event: Event<Msg>, ctx: &mut Context<Msg>) {
        if self.dead {
            // A crashed node processes nothing until its restart (the
            // simulator drops messages to it; timers from the dead
            // lifetime were cleared and are ignored by tag anyway).
            if let Event::Restart { incarnation } = event {
                self.restart(incarnation, ctx);
            }
            return;
        }
        match event {
            Event::Start => {
                let base = std::mem::take(&mut self.base);
                ctx.mark_changed();
                let out = self.absorb(&base);
                self.ship_all(out, ctx);
                self.maybe_arm_checkpoint(ctx);
            }
            Event::Timer { tag } => self.timer_fired(tag, ctx),
            Event::MetricChange { neighbor, cost } => {
                // First-class metric churn: retract-old + assert-new in one
                // batch.  Close the window first — the recost deltas are
                // computed against engine state, so buffered deltas for the
                // same link (an earlier recost in this window) must be
                // applied before the store is consulted.
                self.flush_pending(ctx);
                let deltas = self.metric_change(neighbor, cost);
                self.enqueue(deltas, ctx);
            }
            Event::Message { from, msg } => match msg {
                Msg::Tuple(m) => self.on_tuple(from, m, ctx),
                Msg::Ack { session, ack } => self.on_ack(from, session, ack, ctx),
                Msg::Nack { session, want } => self.on_nack(from, session, want, ctx),
                Msg::Reset { session } => self.on_reset(from, session, ctx),
            },
            Event::LinkChange { neighbor, up } => {
                // Session bumps, purges, and re-ships must observe a
                // consistent engine: close the window first.
                self.flush_pending(ctx);
                let out = if up {
                    self.link_up(neighbor)
                } else {
                    self.link_down(neighbor)
                };
                if !out.is_empty() {
                    ctx.mark_changed();
                }
                self.ship_all(out, ctx);
                self.maybe_arm_checkpoint(ctx);
            }
            Event::Crash => self.crash(),
            // A restart for a node that is not dead (stale schedule entry):
            // nothing to recover.
            Event::Restart { .. } => {}
        }
    }
}

/// The distributed runtime harness: compile once, run on a topology.
pub struct DistRuntime {
    sim: Simulator<NdlogNode>,
    stats: Option<SimStats>,
    telemetry: Telemetry,
    /// Demand-driven read path over the *original* (pre-localization)
    /// program: point queries compile once per binding shape and evaluate
    /// against the union of live nodes' externally-supported tuples.
    queries: QueryEngine,
}

impl DistRuntime {
    /// Localize and compile `program`, distribute its facts by location
    /// attribute, and prepare a simulator over `topo` with default options
    /// — shorthand for [`open`](Self::open) with an unconfigured
    /// [`Session`] builder.
    pub fn new(program: &Program, topo: &Topology, cfg: SimConfig) -> Result<Self> {
        Self::open(&Session::open(program), topo, cfg)
    }

    /// Build the distributed runtime from a [`Session`] configuration — the
    /// unified churn API's distributed backend.  Every
    /// [`SessionBuilder`] knob maps onto the runtime:
    ///
    /// * [`eval_options`](SessionBuilder::eval_options) — per-node
    ///   evaluation bounds (exceeding them panics mid-simulation, since
    ///   protocol handlers cannot surface errors);
    /// * [`sharding(n)`](SessionBuilder::sharding) — each node's engine
    ///   runs its maintenance rounds on `n` shard workers
    ///   ([`ndlog::sharded`]; one router/pool shared by every node).
    ///   Sharding changes how a node evaluates, never what it derives or
    ///   ships;
    /// * [`batch_window(t)`](SessionBuilder::batch_window) — each node
    ///   buffers incoming deltas for up to `t` simulator ticks and
    ///   maintains them as one merged batch (see the [module
    ///   docs](self));
    /// * [`checkpoint_every(t)`](SessionBuilder::checkpoint_every) — each
    ///   node snapshots its state every `t` ticks of activity, enabling
    ///   warm crash recovery (0 — the default — means crashed nodes
    ///   cold-boot from genesis facts).
    ///
    /// [`soft_state`](SessionBuilder::soft_state) is **not yet supported**
    /// distributed (nodes do not run TTL timers); a builder carrying a
    /// non-empty policy is rejected here rather than silently ignored.
    ///
    /// ```no_run
    /// use ndlog::update::Session;
    /// use ndlog_runtime::DistRuntime;
    /// use netsim::{SimConfig, Topology};
    ///
    /// let topo = Topology::ring(4);
    /// let mut prog = ndlog::programs::path_vector();
    /// ndlog_runtime::link_facts(&mut prog, &topo);
    /// let cfg = SimConfig {
    ///     loss: 0.1,
    ///     duplication: 0.05,
    ///     ..Default::default()
    /// };
    /// let mut rt = DistRuntime::open(
    ///     &Session::open(&prog).sharding(2).checkpoint_every(16),
    ///     &topo,
    ///     cfg,
    /// )
    /// .unwrap();
    /// rt.schedule_links(&topo.flap_schedule(0, 1, 50, 20, 2));
    /// rt.schedule_crashes(&topo.crash_restart_schedule(2, 100, 60, 7));
    /// assert!(rt.run().quiescent);
    /// ```
    pub fn open(session: &SessionBuilder, topo: &Topology, cfg: SimConfig) -> Result<Self> {
        if session.ttl().is_some_and(|p| !p.is_empty()) {
            return Err(NdlogError::Eval {
                msg: "soft-state TTL policies are not supported by the distributed \
                      runtime yet (nodes run no TTL timers); drop .soft_state(..) \
                      or run the session centrally"
                    .into(),
            });
        }
        let program = session.program();
        let eval_opts = session.options();
        let shards = session.shards();
        let batch_window = session.window();
        let checkpoint_every = session.checkpoint_cadence();
        // Point queries answer over the operator-facing program, not the
        // localized rewrite: the rewrite's auxiliary link-local relations
        // are an execution detail the read API must not expose.
        let queries = QueryEngine::new(&analyze(program)?, eval_opts);
        let localized = localize_program(program)?;
        let mut compiled_prog = localized.into_program();
        compiled_prog.facts = program.facts.clone();
        compiled_prog.materializes = program.materializes.clone();
        let analysis = analyze(&compiled_prog)?;

        // The churn handler retracts/re-asserts `link(@from, to, cost)`
        // facts; a program redefining that relation's shape would silently
        // keep routing over dead links, so reject it up front.
        if let Some(&arity) = analysis.arity.get(LINK_PRED) {
            let loc = analysis.location.get(LINK_PRED).copied().flatten();
            if loc != Some(0) || arity < 2 {
                return Err(NdlogError::Schema {
                    predicate: LINK_PRED.into(),
                    msg: format!(
                        "the distributed runtime requires {LINK_PRED}(@from, to, ...) \
                         (location at position 0, arity >= 2); \
                         got arity {arity}, location {loc:?}"
                    ),
                });
            }
        }

        // Partition facts by their location attribute, pre-interned against
        // the shared symbol table (ids agree on every node).
        let n = topo.num_nodes();
        let mut bases: Vec<Vec<RelDelta>> = (0..n).map(|_| Vec::new()).collect();
        for fact in &program.facts {
            let tuple = SharedTuple::from(fact.const_tuple().expect("facts are ground"));
            let rel = analysis
                .symbols
                .lookup(&fact.pred)
                .expect("fact predicate interned at analysis");
            let loc = analysis.location.get(&fact.pred).copied().flatten();
            let owner = loc.and_then(|i| tuple.get(i)).and_then(Value::as_addr);
            match owner {
                Some(o) if o < n => {
                    bases[o as usize].push(RelDelta::insert(rel, tuple));
                }
                Some(o) => {
                    return Err(NdlogError::Eval {
                        msg: format!("fact {} homed at out-of-range node {o}", fact.pred),
                    })
                }
                None => {
                    // Unlocated facts are replicated everywhere (the shared
                    // handle makes replication a refcount bump per node).
                    for b in bases.iter_mut() {
                        b.push(RelDelta::insert(rel, tuple.clone()));
                    }
                }
            }
        }

        // Dense location table shared by every node: owner lookups per
        // shipped change become an indexed load instead of a name probe.
        let mut location = vec![None; analysis.symbols.len()];
        for (pred, loc) in &analysis.location {
            if let Some(id) = analysis.symbols.lookup(pred) {
                location[id.index()] = *loc;
            }
        }
        let location = Arc::new(location);
        // `None` when the program never mentions `link`: churn handling then
        // has no facts to retract, but provenance purging still applies.
        let link_rel = analysis.symbols.lookup(LINK_PRED);

        // Retransmission clock: the RTO must comfortably exceed one
        // round trip (request out, delayed ack back) at worst-case jitter,
        // or zero-loss runs would retransmit spuriously.
        let rto_base = (4 * (cfg.latency + cfg.jitter)).max(8);
        let ack_delay = (cfg.latency + cfg.jitter).max(1);

        // One shared compilation: cloning the prototype shares the analysis,
        // stratum plans, and shard-worker pool (Arc) instead of deep-copying
        // them per node.
        let router = (shards > 1).then(|| Arc::new(ndlog::ShardRouter::new(&analysis, shards)));
        let telemetry = session.telemetry_handle().clone();
        let mut proto = IncrementalEngine::from_analysis(analysis, eval_opts);
        // Per-node engines inherit the session's native-operator knob; the
        // operators themselves still bail on distributed stores (set_home
        // below), so this only matters for diagnostics and future
        // node-local plans — the localized program's split strata are
        // maintained by the general delta engine either way.
        proto.set_native_ops(session.native_ops_enabled());
        proto.set_sharding(router);
        // The prototype's metric handles are Arc-shared by every node clone:
        // engine-level counters (`ndlog_*`) aggregate across the whole
        // network, while the per-node `runtime_node_*` series below stay
        // node-scoped.
        proto.set_telemetry(&telemetry);
        let nodes: Vec<NdlogNode> = bases
            .into_iter()
            .enumerate()
            .map(|(i, base)| {
                let mut engine = proto.clone();
                engine.set_home(i as u32);
                let pristine = Box::new(engine.clone());
                NdlogNode {
                    me: i as u32,
                    engine,
                    link_rel,
                    location: Arc::clone(&location),
                    genesis: base.clone(),
                    base,
                    sent: Default::default(),
                    received: Default::default(),
                    suspended_links: Default::default(),
                    links: Default::default(),
                    timers: Default::default(),
                    next_timer: 0,
                    flush_tag: None,
                    checkpoint_tag: None,
                    session_base: 0,
                    dead: false,
                    pristine,
                    checkpoint: None,
                    checkpoint_every,
                    rto_base,
                    ack_delay,
                    reorder_cap: REORDER_CAP,
                    acked: 0,
                    batch_window,
                    pending: Vec::new(),
                    applied: BatchStats::default(),
                    batches: 0,
                    metrics: NodeMetrics::resolve(&telemetry, i as u32),
                }
            })
            .collect();
        Ok(DistRuntime {
            sim: Simulator::new(topo.clone(), nodes, cfg),
            stats: None,
            telemetry,
            queries,
        })
    }

    /// Schedule link changes (status toggles and metric changes) before
    /// running.  Delegates to the one schedule interpreter,
    /// [`netsim::Simulator::schedule_links`]; oracles over the same
    /// schedule come from [`LinkSchedule::final_topology`].
    pub fn schedule_links(&mut self, schedule: &[LinkSchedule]) {
        self.sim.schedule_links(schedule);
    }

    /// Schedule node crash/restart faults before running.  Delegates to
    /// [`netsim::Simulator::schedule_crashes`]; seeded deterministic
    /// campaigns come from [`Topology::crash_restart_schedule`].
    pub fn schedule_crashes(&mut self, schedule: &[CrashSchedule]) {
        self.sim.schedule_crashes(schedule);
    }

    /// Run to quiescence; returns simulator stats (messages, convergence
    /// time).
    pub fn run(&mut self) -> SimStats {
        let stats = self.sim.run();
        self.stats = Some(stats);
        stats
    }

    /// The local view at one node (see [`NdlogNode::database`]).
    pub fn database_at(&self, node: u32) -> Database {
        self.sim.node(node).database()
    }

    /// Union of all nodes' databases (for comparing against centralized
    /// evaluation).  Crashed-and-not-restarted nodes contribute nothing —
    /// their volatile state is gone.
    pub fn global_database(&self) -> Database {
        let mut out = Database::new();
        for v in 0..self.sim.topology().num_nodes() {
            out.absorb(&self.sim.node(v).database());
        }
        out
    }

    /// Answer a demand-driven [`Query`] against the network's current
    /// state: the magic-sets plan (compiled over the *original* program,
    /// shared with `Session::query`) evaluates over the union of live
    /// nodes' externally-supported tuples — ground facts plus received
    /// shipments; crashed nodes contribute nothing, exactly like
    /// [`global_database`](Self::global_database).  After a quiescent run
    /// the answers are byte-identical to filtering the global database.
    pub fn query(&self, q: &Query) -> Result<QueryResult> {
        let n = self.sim.topology().num_nodes();
        self.queries.query(q, |pred, sink| {
            for v in 0..n {
                let node = self.sim.node(v);
                if node.dead {
                    continue;
                }
                let storage = node.engine.storage();
                if let Some(rel) = storage.symbols().lookup(pred) {
                    for t in storage.external_id(rel) {
                        sink(t.clone());
                    }
                }
            }
        })
    }

    /// Stats of the last run.
    pub fn stats(&self) -> Option<SimStats> {
        self.stats
    }

    /// Cumulative maintenance work summed over every node — the
    /// "derivations" axis of EXP‑12 (message counts come from
    /// [`SimStats::messages`]).
    pub fn maintenance_stats(&self) -> BatchStats {
        let mut total = BatchStats::default();
        for v in 0..self.sim.topology().num_nodes() {
            total += self.sim.node(v).maintenance_stats();
        }
        total
    }

    /// Total maintenance batches summed over every node (a batch window
    /// folds many events into one batch).
    pub fn batches(&self) -> u64 {
        (0..self.sim.topology().num_nodes())
            .map(|v| self.sim.node(v).batches())
            .sum()
    }

    /// The telemetry handle the runtime records through — the one configured
    /// on the [`SessionBuilder`] passed to [`open`](Self::open) (the no-op
    /// sink by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A deterministic, name-sorted snapshot of the whole network's metrics
    /// (empty when telemetry is disabled): the engine-level `ndlog_*`
    /// families aggregated across every node's engine clone, plus one
    /// `runtime_node_*{node="i"}` series per node for messages
    /// shipped/processed, window flushes, reorder-buffer depth, and the
    /// reliable-delivery layer (retransmits, suppressed duplicates, acked
    /// depth, snapshot bytes, recovery re-ships).
    pub fn metrics(&self) -> Snapshot {
        self.telemetry.snapshot()
    }
}

/// Build symmetric `link(@a,b,c)` facts for a topology (the standard input
/// relation of the paper's programs).
pub fn link_facts(program: &mut Program, topo: &Topology) {
    ndlog::programs::add_links(program, &topo.edge_list());
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog::eval_program;
    use ndlog::programs::path_vector;
    use ndlog::Value;

    fn pv_on(topo: &Topology) -> Program {
        let mut p = path_vector();
        link_facts(&mut p, topo);
        p
    }

    fn run_distributed(topo: &Topology) -> (Database, SimStats) {
        let prog = pv_on(topo);
        let mut rt = DistRuntime::new(&prog, topo, SimConfig::default()).unwrap();
        let stats = rt.run();
        (rt.global_database(), stats)
    }

    fn assert_matches(want: &Database, got: &Database, what: &str) {
        for pred in ["path", "bestPathCost", "bestPath"] {
            let c: Vec<_> = want.relation(pred).cloned().collect();
            let d: Vec<_> = got.relation(pred).cloned().collect();
            assert_eq!(c, d, "{pred} differs: {what}");
        }
    }

    fn check_matches_centralized(topo: &Topology) {
        let prog = pv_on(topo);
        let central = eval_program(&prog).unwrap();
        let (dist, stats) = run_distributed(topo);
        assert!(stats.quiescent, "distributed run must quiesce");
        assert_matches(&central, &dist, &format!("on {topo:?}"));
    }

    #[test]
    fn distributed_equals_centralized_on_line() {
        check_matches_centralized(&Topology::line(4));
    }

    #[test]
    fn distributed_equals_centralized_on_ring() {
        check_matches_centralized(&Topology::ring(5));
    }

    #[test]
    fn distributed_equals_centralized_on_random() {
        check_matches_centralized(&Topology::random_connected(8, 0.35, 4, 11));
    }

    #[test]
    fn best_paths_are_shortest() {
        let topo = Topology::random_connected(9, 0.3, 5, 3);
        let (db, _) = run_distributed(&topo);
        for src in 0..topo.num_nodes() {
            let truth = topo.shortest_paths(src);
            for t in db.relation("bestPathCost") {
                if t[0] == Value::Addr(src) {
                    let d = t[1].as_addr().unwrap();
                    let c = t[2].as_int().unwrap();
                    assert_eq!(c, truth[&d], "cost {src}->{d}");
                }
            }
        }
    }

    #[test]
    fn messages_are_exchanged_and_bounded() {
        let topo = Topology::line(4);
        let (_, stats) = run_distributed(&topo);
        assert!(stats.messages > 0);
        // Dedup means messages are bounded by tuples x edges (plus the
        // reliable-delivery layer's coalesced acks).
        assert!(stats.messages < 10_000);
    }

    #[test]
    fn convergence_time_grows_with_diameter() {
        let (_, s4) = run_distributed(&Topology::line(4));
        let (_, s8) = run_distributed(&Topology::line(8));
        assert!(
            s8.last_change > s4.last_change,
            "longer line should converge later ({} vs {})",
            s8.last_change,
            s4.last_change
        );
    }

    #[test]
    fn tuples_live_at_their_location() {
        let topo = Topology::line(3);
        let prog = pv_on(&topo);
        let mut rt = DistRuntime::new(&prog, &topo, SimConfig::default()).unwrap();
        rt.run();
        for v in 0..3u32 {
            for t in rt.database_at(v).relation("bestPath") {
                assert_eq!(t[0], Value::Addr(v), "bestPath tuple stored off-site");
            }
        }
    }

    #[test]
    fn unlocated_facts_replicate() {
        let mut prog = ndlog::parse_program(
            "x out(@S, K) :- link(@S, D, C), config(K).
             config(42).",
        )
        .unwrap();
        let topo = Topology::line(2);
        link_facts(&mut prog, &topo);
        let mut rt = DistRuntime::new(&prog, &topo, SimConfig::default()).unwrap();
        rt.run();
        assert!(rt
            .database_at(0)
            .contains("out", &vec![Value::Addr(0), Value::Int(42)]));
        assert!(rt
            .database_at(1)
            .contains("out", &vec![Value::Addr(1), Value::Int(42)]));
    }

    // ------------------------------------------------------------------
    // churn: link failures and flaps as tuple deltas
    // ------------------------------------------------------------------

    /// Centralized oracle over a mutated topology.
    fn central_on(topo: &Topology, remove: &[(u32, u32)]) -> Database {
        let mut t = topo.clone();
        for &(a, b) in remove {
            t.remove_edge(a, b);
        }
        eval_program(&pv_on(&t)).unwrap()
    }

    #[test]
    fn link_failure_converges_to_new_topology_fixpoint() {
        // A square: failing one side leaves everything reachable the other
        // way around, at higher cost.
        let topo = Topology::ring(4);
        let prog = pv_on(&topo);
        let mut rt = DistRuntime::new(&prog, &topo, SimConfig::default()).unwrap();
        rt.schedule_links(&[LinkSchedule::down(50, 0, 1)]);
        let stats = rt.run();
        assert!(stats.quiescent);
        let want = central_on(&topo, &[(0, 1)]);
        assert_matches(&want, &rt.global_database(), "after link failure");
    }

    #[test]
    fn link_flap_recovers_original_fixpoint() {
        let topo = Topology::ring(4);
        let prog = pv_on(&topo);
        let mut rt = DistRuntime::new(&prog, &topo, SimConfig::default()).unwrap();
        rt.schedule_links(&topo.flap_schedule(0, 1, 50, 40, 2));
        let stats = rt.run();
        assert!(stats.quiescent);
        let want = eval_program(&prog).unwrap();
        assert_matches(&want, &rt.global_database(), "after flap recovery");
    }

    #[test]
    fn retractions_are_shipped_on_failure() {
        let topo = Topology::line(3);
        let prog = pv_on(&topo);
        let mut rt = DistRuntime::new(&prog, &topo, SimConfig::default()).unwrap();
        rt.schedule_links(&[LinkSchedule::down(50, 1, 2)]);
        let stats = rt.run();
        assert!(stats.quiescent);
        // Node 0 must have dropped its routes through 1 to 2.
        assert!(!rt
            .database_at(0)
            .relation("bestPath")
            .any(|t| t[1] == Value::Addr(2)));
        let want = central_on(&topo, &[(1, 2)]);
        assert_eq!(
            rt.global_database()
                .relation("bestPathCost")
                .cloned()
                .collect::<Vec<_>>(),
            want.relation("bestPathCost").cloned().collect::<Vec<_>>()
        );
    }

    /// An `up` event for a link that never went down (the simulator
    /// dispatches no-op transitions unconditionally) starts a fresh send
    /// session and re-ships — in-flight Start-time assertions land in the
    /// stale session and are purged at the boundary, so the fixpoint is
    /// unchanged.
    #[test]
    fn redundant_link_up_event_stays_consistent() {
        let topo = Topology::line(3);
        let prog = pv_on(&topo);
        let central = eval_program(&prog).unwrap();
        let cfg = SimConfig {
            latency: 10,
            ..Default::default()
        };
        let mut rt = DistRuntime::new(&prog, &topo, cfg).unwrap();
        rt.schedule_links(&[LinkSchedule::up(5, 0, 1)]); // already up
        let stats = rt.run();
        assert!(stats.quiescent);
        assert_matches(&central, &rt.global_database(), "after a no-op up event");
    }

    /// Regression: a flap window *shorter than the link latency* leaves
    /// assertions in flight across the down/up cycle; without link sessions
    /// they would be double-counted on top of the recovery re-ship, leaving
    /// stale tuples no retraction can remove.  Jitter additionally reorders
    /// assert/retract pairs, which the per-session FIFO must absorb.
    #[test]
    fn in_flight_messages_across_flap_windows_stay_consistent() {
        let topo = Topology::ring(4);
        let prog = pv_on(&topo);
        for seed in 0..30 {
            let cfg = SimConfig {
                latency: 5,
                jitter: 3,
                seed,
                ..Default::default()
            };
            let mut rt = DistRuntime::new(&prog, &topo, cfg).unwrap();
            // Rapid flaps (period 2 < latency 5), then a permanent failure.
            rt.schedule_links(&topo.flap_schedule(0, 1, 100, 2, 3));
            rt.schedule_links(&[LinkSchedule::down(500, 1, 2)]);
            let stats = rt.run();
            assert!(stats.quiescent, "seed {seed} must quiesce");
            let want = central_on(&topo, &[(1, 2)]);
            assert_matches(&want, &rt.global_database(), &format!("seed {seed}"));
        }
    }

    /// Per-node sharded engines (4 shard workers per node) must produce the
    /// same distributed fixpoint as the single-threaded runtime, including
    /// under link churn.
    #[test]
    fn sharded_nodes_match_centralized_under_churn() {
        let topo = Topology::ring(4);
        let prog = pv_on(&topo);
        let mut rt = DistRuntime::open(
            &Session::open(&prog).sharding(4),
            &topo,
            SimConfig::default(),
        )
        .unwrap();
        rt.schedule_links(&[LinkSchedule::down(50, 0, 1)]);
        let stats = rt.run();
        assert!(stats.quiescent);
        let want = central_on(&topo, &[(0, 1)]);
        assert_matches(&want, &rt.global_database(), "sharded per-node engines");
    }

    // ------------------------------------------------------------------
    // metric churn and batch windows (the unified-update-API surface)
    // ------------------------------------------------------------------

    /// Centralized oracle over whatever topology a schedule converges to —
    /// the shared schedule interpreter, not a hand-rolled edge mutation.
    fn central_after(topo: &Topology, schedule: &[LinkSchedule]) -> Database {
        eval_program(&pv_on(&LinkSchedule::final_topology(schedule, topo))).unwrap()
    }

    #[test]
    fn metric_change_converges_to_recosted_fixpoint() {
        let topo = Topology::ring(4);
        let prog = pv_on(&topo);
        let schedule = vec![LinkSchedule::metric(50, 0, 1, 7)];
        let mut rt = DistRuntime::new(&prog, &topo, SimConfig::default()).unwrap();
        rt.schedule_links(&schedule);
        let stats = rt.run();
        assert!(stats.quiescent);
        let want = central_after(&topo, &schedule);
        assert_matches(&want, &rt.global_database(), "after a metric change");
    }

    #[test]
    fn metric_change_while_down_applies_on_recovery() {
        let topo = Topology::ring(4);
        let prog = pv_on(&topo);
        // The 0-1 link fails, is recosted while down, then recovers: the
        // recovered link must carry the new cost.
        let schedule = vec![
            LinkSchedule::down(50, 0, 1),
            LinkSchedule::metric(80, 0, 1, 5),
            LinkSchedule::up(120, 0, 1),
        ];
        let mut rt = DistRuntime::new(&prog, &topo, SimConfig::default()).unwrap();
        rt.schedule_links(&schedule);
        let stats = rt.run();
        assert!(stats.quiescent);
        let want = central_after(&topo, &schedule);
        assert_matches(&want, &rt.global_database(), "after recosting a down link");
    }

    #[test]
    fn metric_flap_restores_original_fixpoint() {
        let topo = Topology::ring(5);
        let prog = pv_on(&topo);
        let mut rt = DistRuntime::new(&prog, &topo, SimConfig::default()).unwrap();
        rt.schedule_links(&topo.metric_flap_schedule(0, 1, 50, 40, 2, 9));
        let stats = rt.run();
        assert!(stats.quiescent);
        let want = eval_program(&prog).unwrap();
        assert_matches(&want, &rt.global_database(), "after a metric flap");
    }

    /// Regression: two metric events on the same link inside one batch
    /// window must both take effect.  Recost deltas are computed against
    /// engine state, so metric events close the window first — an earlier
    /// recost still buffered would otherwise make the second read a stale
    /// cost and silently drop the restore.
    #[test]
    fn rapid_metric_flap_inside_one_window_stays_consistent() {
        let topo = Topology::ring(4);
        let prog = pv_on(&topo);
        // Period 8 < window 32: degrade and restore land in one window.
        let schedule = topo.metric_flap_schedule(0, 1, 50, 8, 2, 9);
        let run = |window: u64| {
            let mut rt = DistRuntime::open(
                &Session::open(&prog).batch_window(window),
                &topo,
                SimConfig::default(),
            )
            .unwrap();
            rt.schedule_links(&schedule);
            let stats = rt.run();
            assert!(stats.quiescent, "window {window} must quiesce");
            rt.global_database()
        };
        let want = run(0);
        assert_eq!(run(32), want, "metric flap inside one window diverges");
        // The flap restores the original cost: the unflapped fixpoint.
        let central = eval_program(&prog).unwrap();
        assert_matches(&central, &want, "after an in-window metric flap");
    }

    /// Batch windows change when maintenance runs, never what the network
    /// converges to — and they strictly reduce both messages and batches on
    /// a churn-heavy run.
    #[test]
    fn batch_windows_preserve_fixpoints_and_cut_batches() {
        let topo = Topology::random_connected(8, 0.3, 3, 23);
        let prog = pv_on(&topo);
        let schedule = topo.random_churn_schedule_mix(8, 60, 30, 5, 0.4, 3);
        // Compare *data* messages (the per-node sent counters): total
        // simulator traffic also carries the reliable-delivery layer's
        // acks, whose coalescing varies with event timing.
        let run = |window: u64| {
            let mut rt = DistRuntime::open(
                &Session::open(&prog).batch_window(window).telemetry(true),
                &topo,
                SimConfig::default(),
            )
            .unwrap();
            rt.schedule_links(&schedule);
            let stats = rt.run();
            assert!(stats.quiescent, "window {window} must quiesce");
            let data = counter_sum(&rt, "runtime_node_sent_total");
            (rt.global_database(), data, rt.batches())
        };
        let (want, data0, batches0) = run(0);
        let central = central_after(&topo, &schedule);
        assert_matches(&central, &want, "vs the schedule oracle");
        for window in [1u64, 4, 16] {
            let (got, data, batches) = run(window);
            assert_eq!(got, want, "window {window} diverges");
            assert!(
                batches <= batches0,
                "window {window} must not run more batches ({batches} vs {batches0})"
            );
            assert!(
                data <= data0,
                "window {window} must not ship more data messages ({data} vs {data0})"
            );
        }
    }

    /// Soft-state policies are rejected, not silently ignored: the runtime
    /// runs no TTL timers yet (ROADMAP follow-up).
    #[test]
    fn soft_state_policy_is_rejected_distributed() {
        let topo = Topology::line(2);
        let prog = pv_on(&topo);
        let err = DistRuntime::open(
            &Session::open(&prog).soft_state(ndlog::TtlPolicy::new().with("link", 10)),
            &topo,
            SimConfig::default(),
        );
        assert!(err.is_err());
        // An empty policy carries no obligation and is accepted.
        assert!(DistRuntime::open(
            &Session::open(&prog).soft_state(ndlog::TtlPolicy::new()),
            &topo,
            SimConfig::default(),
        )
        .is_ok());
    }

    #[test]
    fn repeated_flaps_stay_consistent() {
        let topo = Topology::random_connected(6, 0.45, 3, 9);
        let prog = pv_on(&topo);
        let mut rt = DistRuntime::new(&prog, &topo, SimConfig::default()).unwrap();
        let (a, b, _) = topo.edge_list()[0];
        rt.schedule_links(&topo.flap_schedule(a, b, 100, 60, 3));
        let stats = rt.run();
        assert!(stats.quiescent);
        let want = eval_program(&prog).unwrap();
        assert_matches(&want, &rt.global_database(), "after repeated flaps");
    }

    // ------------------------------------------------------------------
    // fault tolerance: loss, duplication, reordering, crash/restart
    // ------------------------------------------------------------------

    /// Sum a per-node counter family across the network.
    fn counter_sum(rt: &DistRuntime, family: &str) -> u64 {
        let snap = rt.metrics();
        (0..rt.sim.topology().num_nodes())
            .filter_map(|v| snap.counter(&format!("{family}{{node=\"{v}\"}}")))
            .sum()
    }

    #[test]
    fn lossy_links_converge_to_centralized_fixpoint() {
        let topo = Topology::ring(5);
        let prog = pv_on(&topo);
        let central = eval_program(&prog).unwrap();
        for seed in 0..8 {
            let cfg = SimConfig {
                loss: 0.3,
                jitter: 3,
                seed,
                ..Default::default()
            };
            let mut rt = DistRuntime::new(&prog, &topo, cfg).unwrap();
            let stats = rt.run();
            assert!(stats.quiescent, "seed {seed} must quiesce under loss");
            assert_matches(
                &central,
                &rt.global_database(),
                &format!("loss seed {seed}"),
            );
        }
    }

    #[test]
    fn loss_is_recovered_by_retransmission() {
        let topo = Topology::line(3);
        let prog = pv_on(&topo);
        let cfg = SimConfig {
            loss: 0.4,
            seed: 5,
            ..Default::default()
        };
        let mut rt = DistRuntime::open(&Session::open(&prog).telemetry(true), &topo, cfg).unwrap();
        let stats = rt.run();
        assert!(stats.quiescent);
        assert!(
            stats.dropped > 0,
            "the loss knob must actually drop messages"
        );
        assert!(
            counter_sum(&rt, "runtime_node_retransmits_total") > 0,
            "dropped messages must be retransmitted"
        );
        let central = eval_program(&prog).unwrap();
        assert_matches(&central, &rt.global_database(), "under 40% loss");
    }

    #[test]
    fn duplicated_messages_are_suppressed() {
        let topo = Topology::line(3);
        let prog = pv_on(&topo);
        let cfg = SimConfig {
            duplication: 0.5,
            jitter: 2,
            seed: 3,
            ..Default::default()
        };
        let mut rt = DistRuntime::open(&Session::open(&prog).telemetry(true), &topo, cfg).unwrap();
        let stats = rt.run();
        assert!(stats.quiescent);
        assert!(stats.duplicated > 0, "the duplication knob must fire");
        assert!(
            counter_sum(&rt, "runtime_node_dup_suppressed_total") > 0,
            "duplicates must be detected and suppressed"
        );
        let central = eval_program(&prog).unwrap();
        assert_matches(&central, &rt.global_database(), "under duplication");
    }

    #[test]
    fn crash_and_cold_restart_rejoins_the_fixpoint() {
        let topo = Topology::ring(4);
        let prog = pv_on(&topo);
        let central = eval_program(&prog).unwrap();
        let mut rt = DistRuntime::new(&prog, &topo, SimConfig::default()).unwrap();
        rt.schedule_crashes(&[CrashSchedule::crash(60, 1), CrashSchedule::restart(160, 1)]);
        let stats = rt.run();
        assert!(stats.quiescent);
        // No checkpoint configured: node 1 cold-boots from genesis and must
        // still rejoin the full-topology fixpoint.
        assert_matches(&central, &rt.global_database(), "after cold restart");
    }

    #[test]
    fn crash_without_restart_purges_the_dead_nodes_state() {
        let topo = Topology::ring(4);
        let prog = pv_on(&topo);
        let mut rt = DistRuntime::new(&prog, &topo, SimConfig::default()).unwrap();
        rt.schedule_crashes(&[CrashSchedule::crash(60, 1)]);
        let stats = rt.run();
        assert!(stats.quiescent);
        // The dead node contributes nothing and its neighbors purge what it
        // asserted: the survivors' fixpoint is the ring minus node 1's
        // edges.
        let want = central_on(&topo, &[(0, 1), (1, 2)]);
        assert_matches(&want, &rt.global_database(), "with node 1 dead");
    }

    #[test]
    fn warm_restart_recovers_from_the_checkpoint() {
        let topo = Topology::ring(4);
        let prog = pv_on(&topo);
        let central = eval_program(&prog).unwrap();
        let mut rt = DistRuntime::open(
            &Session::open(&prog).telemetry(true).checkpoint_every(8),
            &topo,
            SimConfig::default(),
        )
        .unwrap();
        rt.schedule_crashes(&[CrashSchedule::crash(100, 2), CrashSchedule::restart(200, 2)]);
        let stats = rt.run();
        assert!(stats.quiescent);
        assert_matches(&central, &rt.global_database(), "after warm restart");
        let snap = rt.metrics();
        assert!(
            snap.gauge("runtime_node_snapshot_bytes{node=\"2\"}")
                .unwrap_or(0)
                > 0,
            "checkpoint ticks must snapshot state"
        );
    }

    /// Shrinking the reorder bound to 1 under heavy jitter+loss forces
    /// receiver-initiated session resets; the reset/re-ship path must still
    /// converge to the loss-free fixpoint.
    #[test]
    fn reorder_overflow_forces_session_reset_and_still_converges() {
        let topo = Topology::ring(4);
        let prog = pv_on(&topo);
        let central = eval_program(&prog).unwrap();
        let mut reships = 0;
        for seed in 0..6 {
            let cfg = SimConfig {
                latency: 2,
                jitter: 9,
                loss: 0.2,
                seed,
                ..Default::default()
            };
            let mut rt =
                DistRuntime::open(&Session::open(&prog).telemetry(true), &topo, cfg).unwrap();
            for v in 0..topo.num_nodes() {
                rt.sim.node_mut(v).reorder_cap = 1;
            }
            let stats = rt.run();
            assert!(stats.quiescent, "seed {seed} must quiesce with cap 1");
            assert_matches(
                &central,
                &rt.global_database(),
                &format!("reorder cap 1, seed {seed}"),
            );
            reships += counter_sum(&rt, "runtime_node_reships_total");
        }
        assert!(
            reships > 0,
            "a cap-1 buffer under heavy jitter must force reset + re-ship"
        );
    }

    /// The full fault storm: loss, duplication, jitter, link flaps, and a
    /// seeded crash/restart campaign, checked against the schedule oracle.
    #[test]
    fn fault_storm_matches_the_schedule_oracle() {
        let topo = Topology::random_connected(6, 0.45, 3, 9);
        let prog = pv_on(&topo);
        let (a, b, _) = topo.edge_list()[0];
        let schedule = topo.flap_schedule(a, b, 80, 30, 2);
        let want = central_after(&topo, &schedule);
        for seed in 0..5 {
            let cfg = SimConfig {
                loss: 0.2,
                duplication: 0.2,
                jitter: 3,
                seed,
                ..Default::default()
            };
            let mut rt =
                DistRuntime::open(&Session::open(&prog).checkpoint_every(16), &topo, cfg).unwrap();
            rt.schedule_links(&schedule);
            rt.schedule_crashes(&topo.crash_restart_schedule(3, 100, 60, seed));
            let stats = rt.run();
            assert!(stats.quiescent, "fault storm seed {seed} must quiesce");
            assert_matches(&want, &rt.global_database(), &format!("storm seed {seed}"));
        }
    }
}
