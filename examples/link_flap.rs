//! Link-flap churn: incremental maintenance vs epoch recomputation.
//!
//! A 50-node tree-plus-chords topology runs the paper's path-vector program
//! while one redundant link flaps repeatedly.  After every flap event the
//! routing tables are brought back to the fixpoint two ways:
//!
//! * **incremental** — the failure/recovery enters a telemetry-enabled
//!   [`ndlog::Session`] as one link-down/link-up transaction and
//!   counting/z-set maintenance repairs the database;
//! * **epoch** — the from-scratch semi-naive evaluator recomputes the world,
//!   which is what the paper's runtime did on every topology change.
//!
//! Both must land on byte-identical databases; the derivation counters —
//! read back from `Session::metrics()` rather than hand-maintained tallies —
//! show why the incremental subsystem opens the dynamic-network workload
//! class.  The finale looks up the recovered route with a demand-driven
//! point query (`Session::query`) instead of scanning the full database,
//! and asks the engine to *explain* it (`Session::explain` takes the same
//! `Query`), walking its provenance down to ground `link` facts.
//!
//! Run with: `cargo run --release --example link_flap`

use ndlog::{Evaluator, Query, Session, Value};
use netsim::Topology;

fn main() {
    // 50-node binary tree plus redundant chords, unit costs.
    let mut topo = Topology::binary_tree(50);
    for &(a, b) in &[(10u32, 40u32), (7, 23), (3, 12)] {
        topo.add_edge(a, b, 1);
    }
    let (fa, fb) = (10u32, 40u32); // the flapping chord

    let mut prog = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut prog, &topo.edge_list());
    let mut session = Session::open(&prog)
        .telemetry(true)
        .build()
        .expect("path vector evaluates");

    println!("== link flap: incremental vs epoch recomputation ==\n");
    println!(
        "topology: {} nodes / {} links;  flapping link {fa}-{fb} (redundant chord)",
        topo.num_nodes(),
        topo.num_edges()
    );
    println!(
        "initial fixpoint: {} path tuples, {} derivations\n",
        session.len_of("path"),
        session.init_stats().derivations
    );

    println!(
        "{:>6} {:>6}   {:>12} {:>12}   {:>8} {:>8}   {:>7}",
        "flap", "event", "incremental", "epoch", "+tuples", "-tuples", "speedup"
    );
    let mut epoch_total = 0usize;
    for flap in 1..=3u32 {
        for up in [false, true] {
            let txn = session.txn();
            let txn = if up {
                txn.link_up(fa, fb, 1)
            } else {
                txn.link_down(fa, fb, 1)
            };
            let out = txn.commit().expect("maintenance");

            // Epoch oracle: recompute the current topology from scratch.
            let mut t = topo.clone();
            if !up {
                t.remove_edge(fa, fb);
            }
            let mut p = ndlog::programs::path_vector();
            ndlog::programs::add_links(&mut p, &t.edge_list());
            let ev = Evaluator::new(&p).expect("analyze");
            let mut db = ev.base_database(&p);
            let epoch = ev.run(&mut db).expect("epoch evaluation");

            assert_eq!(
                session.database(),
                db.to_named(ev.symbols()),
                "incremental and epoch must agree"
            );
            epoch_total += epoch.derivations;
            println!(
                "{:>6} {:>6}   {:>12} {:>12}   {:>8} {:>8}   {:>6.1}x",
                flap,
                if up { "up" } else { "down" },
                out.stats.derivations,
                epoch.derivations,
                out.stats.inserted,
                out.stats.deleted,
                epoch.derivations as f64 / out.stats.derivations.max(1) as f64
            );
        }
    }

    // The running totals live in the session's metrics registry — no
    // hand-maintained counters.  The snapshot is name-sorted and
    // deterministic for counter families.
    let snap = session.metrics();
    let inc_total = snap
        .counter("ndlog_derivations_total")
        .expect("telemetry enabled") as usize;
    let inc_churn = inc_total - session.init_stats().derivations;
    println!(
        "\ntotals over 3 flaps: incremental {} vs epoch {} derivations ({:.1}x fewer),",
        inc_churn,
        epoch_total,
        epoch_total as f64 / inc_churn.max(1) as f64
    );
    println!("with identical databases after every event.\n");

    println!("engine counters (Session::metrics snapshot, excerpt):");
    for name in [
        "ndlog_batches_total",
        "ndlog_derivations_total",
        "ndlog_tuples_inserted_total",
        "ndlog_tuples_deleted_total",
        "session_txns_total",
        "session_flushes_total",
    ] {
        if let Some(v) = snap.counter(name) {
            println!("  {name:<32} {v}");
        }
    }

    // Is the flapped route back?  Ask with a point query — the magic-sets
    // rewrite evaluates only the demanded {fa}->{fb} sub-goal instead of
    // rematerializing (or cloning) the all-pairs database.
    let q = Query::on("bestPath")
        .bind(Value::Addr(fa))
        .bind(Value::Addr(fb))
        .free()
        .free();
    let ans = session.query(&q).expect("point query");
    println!(
        "\npoint query {q}: {} answer(s); demanded {} derivations vs {} per full \
         epoch recomputation",
        ans.len(),
        ans.stats.derivations,
        epoch_total / 6
    );

    // Why is this route in the table?  Walk its provenance — explain
    // addresses tuples with the same binding-pattern query.
    if let Some(why) = session.explain(&q).first() {
        println!("\nprovenance of the recovered {fa}->{fb} route:");
        println!("{why}");
    }
}
