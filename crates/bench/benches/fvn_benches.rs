//! Criterion benchmarks: one group per experiment of the reproduction index
//! (DESIGN.md §3).  These measure the *cost* of each pipeline stage; the
//! experiment *results* (tables) come from the `paper_tables` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Count every heap allocation so EXP-11 can assert the interned hot path
/// is allocation-free (see `fvn_bench::CountingAlloc`).
#[global_allocator]
static ALLOC: fvn_bench::CountingAlloc = fvn_bench::CountingAlloc;

use fvn::verify::{best_path_strong, best_path_strong_script, path_vector_theory};
use fvn_logic::prover::{Command, Prover};
use fvn_mc::{check_invariant, costs_bounded, DvSystem, ExploreOptions, SppInstance};
use metarouting::{discharge_all, generate, AlgebraSpec};
use ndlog_runtime::{bellman_ford_all_pairs, link_facts, DistRuntime};
use netsim::{SimConfig, Topology};

/// EXP-1: the 7-step interactive proof of bestPathStrong.
fn bench_proof_bestpath(c: &mut Criterion) {
    let theory = path_vector_theory();
    let script = best_path_strong_script();
    c.bench_function("exp1_bestPathStrong_7_steps", |b| {
        b.iter(|| {
            let mut p = Prover::new(&theory, best_path_strong());
            let done = p.run_script(&script).unwrap();
            assert!(done);
            black_box(p.finish().user_steps)
        })
    });
    c.bench_function("exp1_bestPathStrong_grind", |b| {
        b.iter(|| {
            let mut p = Prover::new(&theory, best_path_strong());
            p.apply(&Command::Grind).unwrap();
            assert!(p.is_proved());
            black_box(p.finish().automated_steps)
        })
    });
}

/// EXP-2: model-checking count-to-infinity.
fn bench_count_to_infinity(c: &mut Criterion) {
    c.bench_function("exp2_dv_counterexample", |b| {
        b.iter(|| {
            let dv = DvSystem::classic(16, false);
            let r = check_invariant(&dv, ExploreOptions::default(), |s| costs_bounded(s, 10, 16));
            assert!(r.is_err());
            black_box(r.err().map(|t| t.labels.len()))
        })
    });
    c.bench_function("exp2_pv_invariant_holds", |b| {
        b.iter(|| {
            let pv = DvSystem::classic(16, true);
            let r = check_invariant(&pv, ExploreOptions::default(), |s| costs_bounded(s, 2, 16));
            assert!(r.is_ok());
            black_box(r.ok())
        })
    });
}

/// EXP-3: SPVP convergence, conflicted vs conflict-free.
fn bench_disagree(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp3_spvp");
    for (name, spp) in [
        ("good", SppInstance::good_gadget()),
        ("disagree", SppInstance::disagree()),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &spp, |b, spp| {
            b.iter(|| {
                let out = fvn::bgp::run_spvp(spp, 7, 3, 100_000);
                black_box(out.churn)
            })
        });
    }
    g.finish();
}

/// EXP-4: axiom obligation discharge.
fn bench_algebra_obligations(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp4_obligations");
    for spec in [
        AlgebraSpec::AddCost {
            max_label: 3,
            cap: 16,
        },
        AlgebraSpec::bgp_system(),
        AlgebraSpec::Lex(
            Box::new(AlgebraSpec::GaoRexford),
            Box::new(AlgebraSpec::HopCount { cap: 16 }),
        ),
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(spec.to_string()),
            &spec,
            |b, spec| b.iter(|| black_box(discharge_all(spec).len())),
        );
    }
    g.finish();
}

/// EXP-5: the automated default strategy on the theorem suite.
fn bench_automation(c: &mut Criterion) {
    let theory = path_vector_theory();
    c.bench_function("exp5_grind_loopfree_after_induct", |b| {
        b.iter(|| {
            let t = theory.find_theorem("loopFree").unwrap();
            let mut p = Prover::new(&theory, t.statement.clone());
            p.apply(&Command::Induct("path".into())).unwrap();
            let _ = p.apply(&Command::Grind);
            assert!(p.is_proved());
            black_box(p.finish().automated_steps)
        })
    });
}

/// EXP-6: declarative evaluation vs imperative Bellman-Ford.
fn bench_declarative_vs_imperative(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp6_decl_vs_imp");
    g.sample_size(10);
    for n in [8u32, 16] {
        let topo = Topology::line(n);
        g.bench_with_input(BenchmarkId::new("ndlog", n), &topo, |b, topo| {
            let mut prog = ndlog::programs::path_vector();
            link_facts(&mut prog, topo);
            b.iter(|| black_box(ndlog::eval_program(&prog).unwrap().total()))
        });
        g.bench_with_input(BenchmarkId::new("imperative", n), &topo, |b, topo| {
            b.iter(|| black_box(bellman_ford_all_pairs(topo).len()))
        });
    }
    g.finish();
}

/// EXP-7: the three translations.
fn bench_translation(c: &mut Criterion) {
    let pv = ndlog::parse_program(ndlog::programs::PATH_VECTOR).unwrap();
    c.bench_function("exp7_arc4_ndlog_to_logic", |b| {
        b.iter(|| black_box(fvn::ndlog_to_theory(&pv, "pv").unwrap().defs.len()))
    });
    let model = fvn::figure3_tc();
    c.bench_function("exp7_arc3_components_to_ndlog", |b| {
        b.iter(|| black_box(fvn::to_ndlog(&model).rules.len()))
    });
    c.bench_function("exp7_metarouting_to_ndlog", |b| {
        b.iter(|| black_box(generate(&AlgebraSpec::bgp_system()).program.rules.len()))
    });
}

/// EXP-8: the soft-state rewrite.
fn bench_softstate(c: &mut Criterion) {
    let src = "materialize(link, 10, infinity, keys(1,2)).
               materialize(path, 10, infinity, keys(1,2,3)).\n"
        .to_string()
        + ndlog::programs::PATH_VECTOR;
    let prog = ndlog::parse_program(&src).unwrap();
    c.bench_function("exp8_softstate_rewrite", |b| {
        b.iter(|| {
            black_box(
                ndlog::softstate::rewrite_soft_state(&prog)
                    .unwrap()
                    .literal_blowup(),
            )
        })
    });
}

/// EXP-9: incremental maintenance vs epoch recomputation under a single
/// link failure on a 50-node topology (see DESIGN.md §3 and §5).
///
/// Storage hot-path history on the reference 1-core CI box:
///
/// * PR-1 `entry(pred.to_string())` baseline: 413.7 ms mean;
/// * PR-2 get-first/insert-on-miss rewrite: 397.3 ms mean (432.0 ms on the
///   current box);
/// * PR-3 interned `RelId` + `SharedTuple` stores and persistent shard
///   workers (DESIGN.md §8): 313.7 ms mean / 302.0 ms min on the same box
///   that measured 432.0 ms for PR-2 — a **27% wall-clock cut** from
///   erasing name keys and deep tuple clones (engine clones in the loop
///   share tuple allocations instead of copying path vectors).  EXP-11
///   below pins the allocation-freedom this relies on.
fn bench_incremental_vs_epoch(c: &mut Criterion) {
    use ndlog::incremental::{IncrementalEngine, TupleDelta};
    use ndlog::Value;

    // 50-node binary tree plus redundant chords; fail the 10-40 chord (the
    // network survives on tree routes — the representative flap workload).
    let mut topo50 = Topology::binary_tree(50);
    for &(a, b) in &[(10u32, 40u32), (7, 23), (3, 12)] {
        topo50.add_edge(a, b, 1);
    }
    let edges = topo50.edge_list();
    let (fa, fb) = (10, 40);
    let link = |a: u32, b: u32| vec![Value::Addr(a), Value::Addr(b), Value::Int(1)];
    let fail = [
        TupleDelta::remove("link", link(fa, fb)),
        TupleDelta::remove("link", link(fb, fa)),
    ];
    let recover = [
        TupleDelta::insert("link", link(fa, fb)),
        TupleDelta::insert("link", link(fb, fa)),
    ];

    let mut prog = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut prog, &edges);
    let engine = IncrementalEngine::new(&prog).expect("path vector maintains");

    let remaining: Vec<(u32, u32, i64)> = edges
        .iter()
        .copied()
        .filter(|&(a, b, _)| !(a == fa && b == fb))
        .collect();
    let mut failed_prog = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut failed_prog, &remaining);

    let mut g = c.benchmark_group("exp9_incremental_vs_epoch");
    g.sample_size(10);
    g.bench_function("incremental_link_failure", |b| {
        b.iter(|| {
            let mut e = engine.clone();
            let out = e.apply(&fail).unwrap();
            black_box(out.stats.derivations)
        })
    });
    g.bench_function("incremental_flap_down_up", |b| {
        b.iter(|| {
            let mut e = engine.clone();
            let d = e.apply(&fail).unwrap().stats.derivations;
            let u = e.apply(&recover).unwrap().stats.derivations;
            black_box(d + u)
        })
    });
    // Analysis hoisted out of the loop: only evaluation is timed (the
    // incremental closures still pay an engine clone per iteration, so the
    // wall-clock gap *understates* the incremental advantage).
    let epoch_ev = ndlog::Evaluator::new(&failed_prog).unwrap();
    g.bench_function("epoch_recompute", |b| {
        b.iter(|| {
            let mut db = epoch_ev.base_database(&failed_prog);
            let stats = epoch_ev.run(&mut db).unwrap();
            black_box(stats.derivations)
        })
    });
    g.finish();
}

/// EXP-10: shard-scaling — the reachability fixpoint on a 200-node random
/// connected topology, evaluated by a sharded [`ndlog::Session`] at
/// 1/2/4/8 shards (see DESIGN.md §3 and §7).
///
/// Results are byte-identical at every shard count (asserted below); the
/// wall-clock ratio is only meaningful relative to the printed hardware
/// thread count — on a 1-core box the sharded runs measure pure
/// partition/merge overhead, so the printed load-balance bound (the
/// largest shard's share of the derivation work) is the speedup headroom a
/// multi-core box can realize.
fn bench_shard_scaling(c: &mut Criterion) {
    use ndlog::update::Session;

    let topo = Topology::random_connected(200, 0.02, 1, 7);
    let mut prog = ndlog::programs::reachability();
    link_facts(&mut prog, &topo);
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "exp10: {} nodes / {} links, {} hardware thread(s)",
        topo.num_nodes(),
        topo.num_edges(),
        threads
    );

    // Byte-identity across shard counts, and the load-balance bound at 4
    // shards: tuples of the recursive relation per shard under the router.
    let reference = Session::open(&prog).build().expect("reachability fixpoint");
    let four = Session::open(&prog)
        .sharding(4)
        .build()
        .expect("reachability fixpoint");
    assert_eq!(reference.database(), four.database());
    let mut per_shard = [0usize; 4];
    let storage = four.storage().expect("incremental backend");
    let router = four.router().expect("sharded session");
    let reachable = storage.symbols().lookup("reachable").expect("interned");
    for t in storage.visible_id(reachable) {
        per_shard[router.shard_of_id(reachable, t)] += 1;
    }
    let total: usize = per_shard.iter().sum();
    let max = per_shard.iter().copied().max().unwrap_or(0).max(1);
    println!(
        "exp10: 4-shard load balance {:?} -> parallel headroom {:.2}x",
        per_shard,
        total as f64 / max as f64
    );

    let mut g = c.benchmark_group("exp10_shard_scaling");
    g.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let s = Session::open(&prog)
                        .sharding(shards)
                        .build()
                        .expect("fixpoint");
                    black_box(s.init_stats().derivations)
                })
            },
        );
    }
    g.finish();
}

/// EXP-12: batch-window scheduling in the distributed runtime (DESIGN.md
/// §3 and §9).  A path-vector network converges while a mixed
/// toggle/metric churn schedule fires; each node maintains per-message at
/// window 0 and per-merged-window-batch otherwise.  Measures total
/// simulator messages and maintenance derivations vs window size, asserts
/// the quiescent database is **byte-identical** at every window, and
/// asserts the acceptance bar: **≥ 20% fewer messages** at a nonzero
/// window than unbatched.
///
/// Reference numbers (20-node p=0.15 topology, 10 mixed churn events, this
/// PR's box): window 0 → 3571 msgs / 19.5k derivations; window 8 → 91.6% /
/// 59.6% of baseline; window 16 → **59.8% / 35.1%**; window 32 → 30.8% /
/// 18.2% (convergence time trades off: 216 → 394 ticks at window 32).
fn bench_batch_window(c: &mut Criterion) {
    use ndlog::update::Session;

    let topo = Topology::random_connected(20, 0.15, 4, 11);
    let mut prog = ndlog::programs::path_vector();
    link_facts(&mut prog, &topo);
    // Convergence churn: mixed up/down toggles and metric changes firing
    // while the network is still converging from Start.
    let churn = topo.random_churn_schedule_mix(10, 30, 20, 7, 0.3, 4);
    println!(
        "exp12: {} nodes / {} links, {} churn events (30% metric changes)",
        topo.num_nodes(),
        topo.num_edges(),
        churn.len()
    );

    let run = |window: u64| {
        let mut rt = DistRuntime::open(
            &Session::open(&prog).batch_window(window),
            &topo,
            SimConfig::default(),
        )
        .expect("runtime builds");
        rt.schedule_links(&churn);
        let stats = rt.run();
        assert!(stats.quiescent, "window {window} must quiesce");
        (
            stats.messages,
            rt.maintenance_stats().derivations,
            stats.last_change,
            rt.global_database(),
        )
    };
    let (m0, d0, t0, db0) = run(0);
    println!("exp12: window  0 -> {m0:>6} msgs (100.0%)  {d0:>8} derivations (100.0%)  conv {t0}");
    for window in [8u64, 16, 32] {
        let (m, d, t, db) = run(window);
        println!(
            "exp12: window {window:>2} -> {m:>6} msgs ({:>5.1}%)  {d:>8} derivations ({:>5.1}%)  conv {t}",
            100.0 * m as f64 / m0 as f64,
            100.0 * d as f64 / d0 as f64,
        );
        assert_eq!(
            db, db0,
            "window {window} must not change the quiescent database"
        );
        if window == 16 {
            assert!(
                m as f64 <= 0.8 * m0 as f64,
                "a nonzero batch window must cut runtime messages by >= 20% \
                 on the convergence-churn workload ({m} vs {m0})"
            );
        }
    }

    let mut g = c.benchmark_group("exp12_batch_window");
    g.sample_size(10);
    for window in [0u64, 8, 16, 32] {
        // Builder hoisted out of the measured loop: it owns a Program
        // clone, which is configuration, not the work under test.
        let builder = Session::open(&prog).batch_window(window);
        g.bench_with_input(
            BenchmarkId::from_parameter(window),
            &builder,
            |b, builder| {
                b.iter(|| {
                    let mut rt = DistRuntime::open(builder, &topo, SimConfig::default())
                        .expect("runtime builds");
                    rt.schedule_links(&churn);
                    black_box(rt.run().messages)
                })
            },
        );
    }
    g.finish();
}

/// EXP-11: the interned hot path under the microscope (see DESIGN.md §3
/// and §8).  Measures the three inner-loop primitives of incremental
/// maintenance on a warm 30-node path-vector store and **asserts, via the
/// counting global allocator, that the interned forms perform zero heap
/// allocations per operation** — no per-firing `String`, no owned `Tuple`
/// clone.
///
/// Reference numbers (1-core CI box): interned probe ~0.9 us/op with 0
/// allocs once the result buffer is reused; support updates 0 allocs;
/// engine clone ~3x cheaper than the former deep-copy layout (shared tuple
/// handles instead of deep path copies).
fn bench_interned_hot_path(c: &mut Criterion) {
    use ndlog::incremental::IncrementalEngine;
    use ndlog::value::SharedTuple;
    use ndlog::Value;

    let topo = Topology::binary_tree(30);
    let mut prog = ndlog::programs::path_vector();
    link_facts(&mut prog, &topo);
    let engine = IncrementalEngine::new(&prog).expect("path vector fixpoint");
    let storage = engine.storage();
    let path = storage.symbols().lookup("path").expect("path interned");
    let keys: Vec<Vec<Value>> = (0..topo.num_nodes())
        .map(|n| vec![Value::Addr(n)])
        .collect();

    // --- allocation proof: join probes over the interned store -----------
    let mut buf: Vec<&SharedTuple> = Vec::with_capacity(1024);
    let mut hits = 0usize;
    // Warm the reusable buffer to its high-water mark first.
    for key in &keys {
        buf.clear();
        storage.matches_adjusted_id_into(path, &[0], key, None, &mut buf);
        hits += buf.len();
    }
    let (allocs, bytes, _) = fvn_bench::count_allocs(|| {
        for _ in 0..100 {
            for key in &keys {
                buf.clear();
                storage.matches_adjusted_id_into(path, &[0], key, None, &mut buf);
                hits += buf.len();
            }
        }
    });
    assert!(hits > 0, "probes must hit the warm store");
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "interned join probe must not allocate (no String keys, no tuple clones)"
    );
    println!(
        "exp11: 100x{} warm interned probes -> {allocs} allocs / {bytes} bytes",
        keys.len()
    );

    // --- allocation proof: support updates on existing tuples ------------
    // A standalone store mirroring the path relation: the support-update
    // path (`add_derived_id` on a tuple that stays visible) is what every
    // counting-maintenance firing executes.
    let mut store = ndlog::RelationStorage::new();
    let spath = store.rel_id("path");
    for t in storage.visible_id(path) {
        store.add_edb_id(spath, t, 1);
    }
    let tuple = storage
        .visible_id(path)
        .next()
        .expect("path relation is non-empty")
        .clone();
    let (allocs, bytes, _) = fvn_bench::count_allocs(|| {
        for _ in 0..10_000 {
            store.add_derived_id(spath, &tuple, 1);
            store.add_derived_id(spath, &tuple, -1);
        }
    });
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "support updates on existing tuples must not allocate"
    );
    println!("exp11: 10000 warm support-update cycles -> {allocs} allocs / {bytes} bytes");

    // --- wall clock: probe and clone -------------------------------------
    let mut g = c.benchmark_group("exp11_hot_path");
    g.bench_function("join_probe_interned", |b| {
        let mut buf: Vec<&SharedTuple> = Vec::with_capacity(1024);
        b.iter(|| {
            let mut n = 0usize;
            for key in &keys {
                buf.clear();
                storage.matches_adjusted_id_into(path, &[0], key, None, &mut buf);
                n += buf.len();
            }
            black_box(n)
        })
    });
    g.bench_function("engine_clone", |b| {
        b.iter(|| black_box(engine.clone().init_stats().derivations))
    });
    g.finish();
}

/// EXP-13: telemetry overhead — the EXP-9 flap workload run through a
/// [`ndlog::Session`] with the metrics sink disabled (the default no-op
/// handles) vs enabled (live atomic counters and phase timers).
///
/// Two acceptance assertions run *in the function body* (so they hold even
/// when `FVN_BENCH_FILTER` skips the criterion measurements):
///
/// 1. **zero-alloc no-op path** — warm join probes plus no-op handle
///    recording allocate nothing (the EXP-11 `CountingAlloc` harness);
/// 2. **≤5% enabled overhead** — best-of-N wall clock of the enabled
///    session stays within 1.05x of the disabled one on the flap batch.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use ndlog::incremental::TupleDelta;
    use ndlog::telemetry::{Counter, Telemetry};
    use ndlog::update::Session;
    use ndlog::value::SharedTuple;
    use ndlog::Value;
    use std::time::{Duration, Instant};

    // The EXP-9 workload: 50-node binary tree plus redundant chords, the
    // 10-40 chord failing and recovering.
    let mut topo = Topology::binary_tree(50);
    for &(a, b) in &[(10u32, 40u32), (7, 23), (3, 12)] {
        topo.add_edge(a, b, 1);
    }
    let link = |a: u32, b: u32| vec![Value::Addr(a), Value::Addr(b), Value::Int(1)];
    let (fa, fb) = (10u32, 40u32);
    let fail = [
        TupleDelta::remove("link", link(fa, fb)),
        TupleDelta::remove("link", link(fb, fa)),
    ];
    let recover = [
        TupleDelta::insert("link", link(fa, fb)),
        TupleDelta::insert("link", link(fb, fa)),
    ];
    let mut prog = ndlog::programs::path_vector();
    link_facts(&mut prog, &topo);

    let noop = Session::open(&prog).build().expect("path vector maintains");
    let live = Session::open(&prog)
        .telemetry(true)
        .build()
        .expect("path vector maintains");
    assert!(!noop.telemetry().is_enabled() && live.telemetry().is_enabled());

    // --- acceptance: the disabled path allocates nothing -----------------
    // Warm probes against the live store plus no-op handle traffic — the
    // exact shape every maintenance firing pays when telemetry is off.
    let storage = noop.storage().expect("incremental backend");
    let path = storage.symbols().lookup("path").expect("path interned");
    let keys: Vec<Vec<Value>> = (0..topo.num_nodes())
        .map(|n| vec![Value::Addr(n)])
        .collect();
    let mut buf: Vec<&SharedTuple> = Vec::with_capacity(2048);
    for key in &keys {
        buf.clear();
        storage.matches_adjusted_id_into(path, &[0], key, None, &mut buf);
    }
    let off = Telemetry::disabled();
    let counter = off.counter("exp13_noop");
    let noop_counter = Counter::noop();
    let timer_hist = off.histogram("exp13_noop_ns");
    let mut hits = 0usize;
    let (allocs, bytes, _) = fvn_bench::count_allocs(|| {
        for _ in 0..100 {
            for key in &keys {
                buf.clear();
                storage.matches_adjusted_id_into(path, &[0], key, None, &mut buf);
                hits += buf.len();
                counter.incr();
                noop_counter.add(buf.len() as u64);
                timer_hist.start_timer().stop();
            }
        }
    });
    assert!(hits > 0, "probes must hit the warm store");
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "disabled telemetry must be zero-alloc on the warm probe path"
    );
    println!(
        "exp13: 100x{} warm probes + no-op metric records -> {allocs} allocs / {bytes} bytes",
        keys.len()
    );

    // --- acceptance: enabled overhead <= 5% on the flap batch ------------
    // Best-of-N timing, independent of FVN_BENCH_QUICK/criterion settings:
    // the minimum over many repeats is the stable point estimate least
    // sensitive to scheduler noise, and the two variants are *interleaved*
    // so clock-frequency drift hits both equally.
    let one_run = |session: &Session| -> Duration {
        let mut s = session.clone();
        let t0 = Instant::now();
        s.txn()
            .extend(fail.iter().map(ndlog::Update::from))
            .commit()
            .unwrap();
        s.txn()
            .extend(recover.iter().map(ndlog::Update::from))
            .commit()
            .unwrap();
        t0.elapsed()
    };
    // Warm-up pass so both sessions sit on hot caches.
    one_run(&noop);
    one_run(&live);
    let (mut t_noop, mut t_live) = (Duration::MAX, Duration::MAX);
    for _ in 0..30 {
        t_noop = t_noop.min(one_run(&noop));
        t_live = t_live.min(one_run(&live));
    }
    let ratio = t_live.as_secs_f64() / t_noop.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "exp13: flap batch best-of-30: disabled {t_noop:?} vs enabled {t_live:?} \
         ({:.1}% overhead)",
        (ratio - 1.0) * 100.0
    );
    assert!(
        ratio <= 1.05,
        "enabled telemetry costs {:.1}% (> 5%) on the EXP-9 workload",
        (ratio - 1.0) * 100.0
    );

    let mut g = c.benchmark_group("exp13_telemetry_overhead");
    g.sample_size(10);
    g.bench_function("flap_noop_sink", |b| {
        b.iter(|| {
            let mut s = noop.clone();
            let d = s
                .txn()
                .extend(fail.iter().map(ndlog::Update::from))
                .commit()
                .unwrap()
                .stats
                .derivations;
            black_box(d)
        })
    });
    g.bench_function("flap_live_sink", |b| {
        b.iter(|| {
            let mut s = live.clone();
            let d = s
                .txn()
                .extend(fail.iter().map(ndlog::Update::from))
                .commit()
                .unwrap()
                .stats
                .derivations;
            black_box(d)
        })
    });
    g.finish();
}

/// EXP-14: z-set deletion work vs epoch recomputation on dense-SCC
/// transitive closure (DESIGN.md §3 and §11).
///
/// One directed ring SCC over 20 nodes plus a growing number of chord
/// links; the deleted link is always a chord, so the ring keeps the
/// component strongly connected and the *visible* database does not change
/// at all — the true change is zero at every density.  Difference-based
/// z-set maintenance must therefore do near-flat work as density grows,
/// while recomputing the post-deletion fixpoint from scratch (the
/// `Evaluator::run` kernel) pays for the whole closure, which grows with
/// density.  Delete–rederive numbers for the same workload are frozen in
/// `BENCH_exp14.json`.
fn bench_zset_deletion(c: &mut Criterion) {
    use ndlog::incremental::TupleDelta;
    use ndlog::update::Session;
    use ndlog::Value;

    const N: u32 = 20;
    let link = |a: u32, b: u32| vec![Value::Addr(a), Value::Addr(b), Value::Int(1)];

    let mut g = c.benchmark_group("exp14_zset_deletion");
    g.sample_size(10);
    let mut zset_work: Vec<usize> = Vec::new();
    let mut epoch_work: Vec<usize> = Vec::new();
    for &chords in &[2u32, 6, 12] {
        // Directed ring 0→1→…→19→0 (one SCC) plus `chords` forward chords.
        let mut edges: Vec<(u32, u32, i64)> = (0..N).map(|i| (i, (i + 1) % N, 1)).collect();
        for k in 0..chords.min(N) {
            edges.push((k, (k + 7) % N, 1));
        }
        let mut prog = ndlog::programs::reachability();
        ndlog::programs::add_directed_links(&mut prog, &edges);
        // Fail the first chord; the ring keeps everything reachable.
        let (da, db) = (edges[N as usize].0, edges[N as usize].1);
        let fail = [TupleDelta::remove("link", link(da, db))];
        let mut remaining = edges.clone();
        remaining.remove(N as usize);
        let mut post = ndlog::programs::reachability();
        ndlog::programs::add_directed_links(&mut post, &remaining);

        // Pin to the generic engine: this experiment measures z-set
        // deletion work, which the native closure operator would otherwise
        // short-circuit (EXP-17 covers the native path).
        let zs = Session::open(&prog).native_ops(false).build().unwrap();
        let epoch_ev = ndlog::Evaluator::new(&post).unwrap();

        // Differential acceptance: the maintained database equals the
        // from-scratch fixpoint of the post-deletion topology byte-for-byte,
        // and the deletion changes nothing visible beyond the base link.
        let mut zs1 = zs.clone();
        let zo = zs1
            .txn()
            .extend(fail.iter().map(ndlog::Update::from))
            .commit()
            .unwrap();
        let mut epoch_db = epoch_ev.base_database(&post);
        let epoch = epoch_ev.run(&mut epoch_db).unwrap();
        assert_eq!(
            zs1.database(),
            epoch_db.to_named(epoch_ev.symbols()),
            "post-deletion databases diverge at chords={chords}"
        );
        let visible = zo.changes.iter().filter(|ch| ch.pred != "link").count();
        assert_eq!(visible, 0, "chord deletion must not change reachability");
        zset_work.push(zo.stats.derivations);
        epoch_work.push(epoch.derivations);
        println!(
            "exp14: chords={chords} true-change=0 zset-derivations={} epoch-derivations={}",
            zo.stats.derivations, epoch.derivations
        );

        g.bench_function(BenchmarkId::new("zset_delete", chords), |b| {
            b.iter(|| {
                let mut s = zs.clone();
                let out = s
                    .txn()
                    .extend(fail.iter().map(ndlog::Update::from))
                    .commit()
                    .unwrap();
                black_box(out.stats.derivations)
            })
        });
        g.bench_function(BenchmarkId::new("epoch_recompute", chords), |b| {
            b.iter(|| {
                let mut db = epoch_ev.base_database(&post);
                let stats = epoch_ev.run(&mut db).unwrap();
                black_box(stats.derivations)
            })
        });
    }
    g.finish();

    // Z-set deletion work tracks the true change (zero here), so it stays
    // flat as density grows; recomputation re-derives the whole closure,
    // so its work grows with density and exceeds z-set everywhere.
    for (z, e) in zset_work.iter().zip(&epoch_work) {
        assert!(z < e, "z-set deletion work {z} must undercut epoch {e}");
    }
    let zmin = *zset_work.iter().min().unwrap();
    let zmax = *zset_work.iter().max().unwrap();
    assert!(
        zmax <= zmin.saturating_mul(4),
        "z-set work must stay flat across densities: {zset_work:?}"
    );
    assert!(
        epoch_work.windows(2).all(|w| w[0] < w[1]),
        "epoch work must grow with density: {epoch_work:?}"
    );
    let (z12, e12) = (*zset_work.last().unwrap(), *epoch_work.last().unwrap());
    assert!(
        e12 >= z12.saturating_mul(3),
        "epoch must cost at least 3x z-set at the densest SCC: zset {zset_work:?} vs epoch {epoch_work:?}"
    );
}

/// EXP-15: fault tolerance of the distributed runtime (DESIGN.md §3 and
/// §12).  A path-vector network converges through a seeded crash/restart
/// campaign while the links lose and duplicate messages; the same
/// campaign runs at loss 0% / 10% / 30%.  Asserts the acceptance bar:
/// the quiescent database is **byte-identical** at every loss rate, and
/// the ack/retransmit layer's overhead keeps total messages ≤ **3×** the
/// loss-free run.
fn bench_fault_tolerance(c: &mut Criterion) {
    use ndlog::update::Session;

    let topo = Topology::random_connected(12, 0.25, 3, 15);
    let mut prog = ndlog::programs::path_vector();
    link_facts(&mut prog, &topo);
    // One seeded crash/restart campaign, identical across loss rates.
    let crashes = topo.crash_restart_schedule(2, 80, 60, 15);
    println!(
        "exp15: {} nodes / {} links, {} crash/restart events, duplication 10%",
        topo.num_nodes(),
        topo.num_edges(),
        crashes.len()
    );

    let run = |loss: f64| {
        let cfg = SimConfig {
            loss,
            duplication: 0.1,
            jitter: 2,
            seed: 15,
            ..Default::default()
        };
        let mut rt = DistRuntime::open(&Session::open(&prog).checkpoint_every(16), &topo, cfg)
            .expect("runtime builds");
        rt.schedule_crashes(&crashes);
        let stats = rt.run();
        assert!(stats.quiescent, "loss {loss} must quiesce: {stats:?}");
        (stats.messages, stats.last_change, rt.global_database())
    };
    let (m0, t0, db0) = run(0.0);
    println!("exp15: loss  0% -> {m0:>6} msgs (100.0%)  conv {t0}");
    for loss in [0.1, 0.3] {
        let (m, t, db) = run(loss);
        println!(
            "exp15: loss {:>2.0}% -> {m:>6} msgs ({:>5.1}%)  conv {t}",
            loss * 100.0,
            100.0 * m as f64 / m0 as f64
        );
        assert_eq!(
            db, db0,
            "loss {loss} must not change the quiescent database"
        );
        assert!(
            m as f64 <= 3.0 * m0 as f64,
            "retransmission overhead at loss {loss} must stay <= 3x loss-free ({m} vs {m0})"
        );
    }

    let mut g = c.benchmark_group("exp15_fault_tolerance");
    g.sample_size(10);
    for loss in [0.0f64, 0.1, 0.3] {
        let builder = Session::open(&prog).checkpoint_every(16);
        g.bench_with_input(BenchmarkId::from_parameter(loss), &builder, |b, builder| {
            b.iter(|| {
                let cfg = SimConfig {
                    loss,
                    duplication: 0.1,
                    jitter: 2,
                    seed: 15,
                    ..Default::default()
                };
                let mut rt = DistRuntime::open(builder, &topo, cfg).expect("runtime builds");
                rt.schedule_crashes(&crashes);
                black_box(rt.run().messages)
            })
        });
    }
    g.finish();
}

/// EXP-16: demand-driven point queries vs full materialization (DESIGN.md
/// §3 and §13).
///
/// A 200-node sparse random topology runs the paper's reachability
/// program.  The sparse-demand workload — eight `reachable(src, dst)`
/// point lookups through `Session::query` — evaluates only the demanded
/// sub-goal via the magic-sets rewrite, against a from-scratch full
/// materialization of the all-pairs fixpoint.  Asserts the acceptance
/// bar in-body: every query answer is **byte-identical** to filtering the
/// materialized database, and the whole workload's best-of-N wall clock
/// is ≤ **10%** of one full materialization's.
fn bench_point_query(c: &mut Criterion) {
    use ndlog::update::Session;
    use ndlog::{Evaluator, Query, Value};
    use std::time::{Duration, Instant};

    // The EXP-10 topology class: 200 nodes, ~2% edge density, connected.
    let topo = Topology::random_connected(200, 0.02, 1, 7);
    let mut prog = ndlog::programs::reachability();
    link_facts(&mut prog, &topo);
    let session = Session::open(&prog)
        .build()
        .expect("reachability maintains");

    // Sparse demand: eight point lookups between scattered pairs.
    let pairs: [(u32, u32); 8] = [
        (3, 150),
        (77, 12),
        (0, 199),
        (42, 43),
        (150, 3),
        (99, 100),
        (7, 183),
        (120, 5),
    ];
    let queries: Vec<Query> = pairs
        .iter()
        .map(|&(s, d)| Query::point("reachable", &[Value::Addr(s), Value::Addr(d)]))
        .collect();

    // --- acceptance: byte-identity against the materialized database -----
    let full_db = session.database();
    for q in &queries {
        let got = session.query(q).expect("point query");
        let want: Vec<_> = full_db
            .relation(q.pred())
            .filter(|t| q.matches(t))
            .cloned()
            .collect();
        assert_eq!(got.tuples, want, "query {q} diverges from oracle filtering");
        assert!(
            got.stats.rewritten,
            "point queries must use the magic rewrite"
        );
    }

    // --- acceptance: point-query latency <= 10% of materialization -------
    // Best-of-N interleaved timing (the EXP-13 idiom): minimum over many
    // repeats, variants alternated so clock drift hits both equally.  The
    // bar is per query — each point lookup must answer in at most a tenth
    // of the time a full fixpoint would take — so the slowest query of the
    // sparse-demand workload is what gets compared.
    let ev = Evaluator::new(&prog).expect("reachability analyzes");
    let full_once = || {
        let t = Instant::now();
        let mut db = ev.base_database(&prog);
        let stats = ev.run(&mut db).expect("full evaluation");
        (t.elapsed(), stats.derivations)
    };
    let demand_once = |per_query: &mut [Duration]| {
        let mut derivations = 0usize;
        let mut total = Duration::ZERO;
        for (q, best) in queries.iter().zip(per_query.iter_mut()) {
            let t = Instant::now();
            let r = session.query(q).expect("point query");
            let dt = t.elapsed();
            *best = (*best).min(dt);
            total += dt;
            derivations += r.stats.derivations;
        }
        (total, derivations)
    };
    // Warm-up: hot caches, and the demand plan compiled + cached.
    full_once();
    demand_once(&mut vec![Duration::MAX; queries.len()]);
    let mut per_query = vec![Duration::MAX; queries.len()];
    let (mut t_full, mut t_demand) = (Duration::MAX, Duration::MAX);
    let (mut d_full, mut d_demand) = (0usize, 0usize);
    for _ in 0..15 {
        let (tf, df) = full_once();
        let (td, dd) = demand_once(&mut per_query);
        t_full = t_full.min(tf);
        t_demand = t_demand.min(td);
        (d_full, d_demand) = (df, dd);
    }
    let t_slowest = per_query.iter().copied().max().unwrap_or(Duration::ZERO);
    let ratio = t_slowest.as_secs_f64() / t_full.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "exp16: {} point queries best-of-15: slowest query {t_slowest:?} \
         ({:.1}% of full), workload {t_demand:?} / {d_demand} derivations \
         vs full {t_full:?} / {d_full} derivations",
        queries.len(),
        ratio * 100.0
    );
    assert!(
        ratio <= 0.10,
        "slowest point query costs {:.1}% (> 10%) of full materialization",
        ratio * 100.0
    );

    let mut g = c.benchmark_group("exp16_point_query");
    g.sample_size(10);
    g.bench_function("sparse_demand_8_point_queries", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for q in &queries {
                n += session.query(q).expect("point query").stats.answers;
            }
            black_box(n)
        })
    });
    g.bench_function("full_materialization", |b| {
        b.iter(|| {
            let mut db = ev.base_database(&prog);
            ev.run(&mut db).expect("full evaluation");
            black_box(db.total())
        })
    });
    g.finish();
}

/// EXP-17: native graph-algorithm operators (DESIGN.md §3 and §14).  The
/// recognizer swaps the recursive strata of the EXP-10-style 200-node
/// reachability fixpoint and the §2.2 path-vector fixpoint for the native
/// BFS closure / cost-ordered path enumerator; the generic engine keeps
/// maintaining the downstream aggregate and join strata either way.
///
/// Asserts the acceptance bars:
///  * final databases **byte-identical** across `native_ops` on/off ×
///    shards 1/2/4 for both programs;
///  * the closure fixpoint materializes **≥ 2×** faster natively
///    (best-of-5; ~3× is typical on this workload — the recursion is the
///    whole program, so the operator's advantage is undiluted);
///  * the path-vector fixpoint is never slower natively (its downstream
///    aggregate/join strata run on the generic engine in both
///    configurations, so Amdahl caps the end-to-end ratio well below the
///    closure's).
fn bench_native_operators(c: &mut Criterion) {
    use ndlog::update::Session;
    use std::time::{Duration, Instant};

    let topo = Topology::random_connected(200, 0.02, 1, 7);
    let mut reach = ndlog::programs::reachability();
    link_facts(&mut reach, &topo);
    let tree: Vec<(u32, u32, i64)> = (1..200u32)
        .map(|i| (i / 2, i, i64::from(i % 7) + 1))
        .collect();
    let mut pv = ndlog::programs::path_vector();
    ndlog::programs::add_links(&mut pv, &tree);

    // Byte-identity matrix: native on/off × shards 1/2/4, both programs.
    for (name, prog) in [("reachability", &reach), ("path_vector", &pv)] {
        let reference = Session::open(prog)
            .native_ops(false)
            .build()
            .expect("semi-naive fixpoint");
        for shards in [1usize, 2, 4] {
            let native = Session::open(prog)
                .sharding(shards)
                .build()
                .expect("native fixpoint");
            assert_eq!(
                reference.database(),
                native.database(),
                "native {name} database diverges at shards={shards}"
            );
        }
    }

    let best_of = |prog: &ndlog::Program, native: bool| -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            let s = Session::open(prog)
                .native_ops(native)
                .build()
                .expect("fixpoint");
            let dt = t.elapsed();
            black_box(s.database().total());
            best = best.min(dt);
        }
        best
    };
    let (rn, rg) = (best_of(&reach, true), best_of(&reach, false));
    let (pn, pg) = (best_of(&pv, true), best_of(&pv, false));
    let ratio = |n: Duration, g: Duration| g.as_secs_f64() / n.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "exp17: closure native {rn:?} vs semi-naive {rg:?} ({:.1}x), \
         path-vector native {pn:?} vs semi-naive {pg:?} ({:.1}x)",
        ratio(rn, rg),
        ratio(pn, pg)
    );
    assert!(
        ratio(rn, rg) >= 2.0,
        "native closure must be >= 2x semi-naive, got {:.2}x ({rn:?} vs {rg:?})",
        ratio(rn, rg)
    );
    assert!(
        rn < rg && pn < pg,
        "native operators must never lose to semi-naive: \
         closure {rn:?} vs {rg:?}, paths {pn:?} vs {pg:?}"
    );

    let mut g = c.benchmark_group("exp17_native_operators");
    g.sample_size(10);
    for (label, prog, native) in [
        ("closure_native", &reach, true),
        ("closure_semi_naive", &reach, false),
        ("paths_native", &pv, true),
        ("paths_semi_naive", &pv, false),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let s = Session::open(prog)
                    .native_ops(native)
                    .build()
                    .expect("fixpoint");
                black_box(s.init_stats().derivations)
            })
        });
    }
    g.finish();
}

/// FIG-1 / arc 7: distributed execution.
fn bench_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_arc7_distributed");
    g.sample_size(10);
    for n in [7u32, 15] {
        let topo = Topology::binary_tree(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &topo, |b, topo| {
            let mut prog = ndlog::programs::path_vector();
            link_facts(&mut prog, topo);
            b.iter(|| {
                let mut rt = DistRuntime::new(&prog, topo, SimConfig::default()).unwrap();
                let stats = rt.run();
                assert!(stats.quiescent);
                black_box(stats.messages)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_proof_bestpath, bench_count_to_infinity, bench_disagree,
              bench_algebra_obligations, bench_automation,
              bench_declarative_vs_imperative, bench_translation,
              bench_softstate, bench_incremental_vs_epoch, bench_shard_scaling,
              bench_interned_hot_path, bench_batch_window,
              bench_telemetry_overhead, bench_zset_deletion,
              bench_fault_tolerance, bench_point_query, bench_native_operators,
              bench_runtime
}
criterion_main!(benches);
