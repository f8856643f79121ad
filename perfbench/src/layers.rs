//! Measurements shared by the workloads: the decision checks, the
//! closed-loop and model phases, the end-to-end metrics, and the per-layer
//! probes of the traced run.
//!
//! Every per-layer probe times calls into one layer's public functions
//! from this file; none reaches into the program.

use crate::openloop::Outcome;
use crate::oracle::{check_window, encode, Cursor, Expected, Tally, NO_MATCH};
use crate::rng::{derive, Rng};
use crate::spans::{self, ProbeState};
use crate::stats::{median, percentile, Hist};
use crate::{peak_rss_mb, phase, Report};
use pclass_algos::{
    Classifier, FlatTreeClassifier, HotCache, HotCacheConfig, LookupStats, RuleUpdate,
    UpdatableClassifier,
};
use pclass_core::builder::{BuildConfig, CutAlgorithm, HwTree};
use pclass_core::{Accelerator, HardwareProgram, ParallelAccelerator, DEFAULT_WORD_CAPACITY};
use pclass_energy::{AcceleratorEnergyModel, Sa1100Model};
use pclass_engine::{EngineConfig, LiveClassifier, SharedClassifier};
use pclass_types::{CacheStats, MatchResult, PacketHeader, RuleSet, Trace};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const MIB: f64 = 1024.0 * 1024.0;

/// The end-to-end metrics, in the order every untraced run prints them.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_mpps",
    "latency_p50_us",
    "sim_cycles_per_pkt",
    "sim_energy_nj_per_pkt",
];

/// The per-layer metrics every traced run prints.
pub const PER_LAYER: [&str; 45] = [
    "algos.tree_build_s",
    "algos.flatten_s",
    "algos.arena_mb",
    "algos.walk_ns_per_pkt",
    "algos.nodes_per_pkt",
    "algos.rules_per_pkt",
    "hotcache.hit_ns_per_pkt",
    "hotcache.miss_ns_per_pkt",
    "hotcache.hit_ratio",
    "hotcache.walked_frac",
    "update.patch_us",
    "update.clone_us",
    "update.drop_us",
    "update.reflattens",
    "live.apply_us",
    "live.publish_us",
    "live.snapshot_ns",
    "live.snapshot_wait_p99_us",
    "engine.loop_ns_per_pkt",
    "engine.scaling_2w",
    "engine.join_imbalance",
    "tenant.route_ns_per_pkt",
    "tenant.router_vs_solo",
    "tenant.admit_us",
    "tenant.evict_us",
    "tenant.memory_mb",
    "core.tree_build_ms",
    "core.encode_ms",
    "core.words",
    "core.sim_ns_per_pkt",
    "core.parallel_ns_per_pkt",
    "core.accesses_per_pkt",
    "energy.asic_nj_per_pkt",
    "energy.fpga_nj_per_pkt",
    "energy.sa1100_nj_per_pkt",
    "loadgen.late_p99_us",
    "latency_p99_us",
    "update_p50_us",
    "update_p90_us",
    "memory_mb",
    "trace.overhead_frac",
    "trace.front_self_ns_per_pkt",
    "trace.walk_self_ns_per_pkt",
    "trace.bench_self_ns_per_pkt",
    "trace.unexplained_frac",
];

/// Largest share of a traced pass's wall time its root spans may leave
/// unaccounted for (README, "Traced run").
pub const UNEXPLAINED_TOLERANCE: f64 = 0.05;

pub fn decode(v: u32) -> MatchResult {
    if v == NO_MATCH {
        MatchResult::NoMatch
    } else {
        MatchResult::Matched(v)
    }
}

/// Checks decisions against expected ones, position by position.
pub fn check_all(got: &[MatchResult], expected: &[u32], tally: &mut Tally) {
    if got.len() != expected.len() {
        tally.record(false, || {
            format!("{} decisions for {} packets", got.len(), expected.len())
        });
        return;
    }
    for (i, (&g, &e)) in got.iter().zip(expected).enumerate() {
        tally.record(encode(g) == e, || {
            format!("packet {i}: got {g:?}, expected {e}")
        });
    }
}

/// Feeds one corrupted decision to both checks and fails unless each
/// counts exactly that one, so a check cannot pass by construction.
pub fn self_test(exp: &Expected) -> Result<(), String> {
    let base = exp.base();
    let mut got: Vec<MatchResult> = base.iter().map(|&e| decode(e)).collect();
    got[0] = match got[0] {
        MatchResult::NoMatch => MatchResult::Matched(0),
        MatchResult::Matched(_) => MatchResult::NoMatch,
    };
    let mut whole = Tally::default();
    check_all(&got, base, &mut whole);
    let mut window = Tally::default();
    let pkts: Vec<u32> = (0..base.len() as u32).collect();
    check_window(&mut Cursor::new(exp), 0, 0, &pkts, &got, &mut window);
    if (whole.wrong, window.wrong) != (1, 1) {
        return Err(format!(
            "self-test: one corrupted decision counted {} and {} times",
            whole.wrong, window.wrong
        ));
    }
    eprintln!("self-test: a corrupted decision is counted as failed");
    Ok(())
}

pub fn verdict(tally: &Tally, open: &Outcome) -> bool {
    eprintln!(
        "checked {} decisions, {} wrong; open loop: {} packets, busy {:.2}, {} writer ops, {} failed",
        tally.checked,
        tally.wrong,
        open.packets,
        open.busy_ns as f64 / open.wall_ns as f64,
        open.ops,
        open.failed
    );
    if let Some(w) = &tally.first_wrong {
        eprintln!("first wrong decision: {w}");
    }
    tally.wrong == 0 && tally.checked > 0
}

/// Median wall time (ns) of `f` over at least `reps` runs and `min_s`
/// seconds.
fn time_median(reps: usize, min_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut v = Vec::new();
    while v.len() < reps || start.elapsed().as_secs_f64() < min_s {
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_nanos() as f64);
    }
    median(&v)
}

/// One software classifier with its traffic and quiescent decisions.
pub struct Unit<'a> {
    pub classifier: &'a FlatTreeClassifier,
    pub headers: &'a [PacketHeader],
    pub expected: &'a [u32],
}

/// SA-1100 model over `classify_with_stats` op counts of a seeded sample.
pub struct Sim {
    pub cycles_per_pkt: f64,
    pub nj_per_pkt: f64,
    pub nodes_per_pkt: f64,
    pub rules_per_pkt: f64,
}

const SIM_SAMPLE: usize = 40_000;

/// Samples packets across the units in proportion to their traffic and
/// runs them through the instrumented lookup and the SA-1100 model.
pub fn sa1100_sample(units: &[Unit], seed: u64, tally: &mut Tally) -> Sim {
    phase("sa1100-model", 1);
    let total: usize = units.iter().map(|u| u.headers.len()).sum();
    let mut rng = Rng::new(derive(seed, 0x51));
    let mut stats = LookupStats::new();
    let mut n = 0usize;
    for u in units {
        let share = (SIM_SAMPLE * u.headers.len()).div_ceil(total);
        for _ in 0..share {
            let p = rng.below(u.headers.len());
            let got = u.classifier.classify_with_stats(&u.headers[p], &mut stats);
            tally.record(encode(got) == u.expected[p], || {
                format!("instrumented lookup of packet {p}: got {got:?}")
            });
            n += 1;
        }
    }
    let model = Sa1100Model::new();
    Sim {
        cycles_per_pkt: model.cycles(&stats.ops) / n as f64,
        nj_per_pkt: model.normalized_energy_j(&stats.ops) * 1e9 / n as f64,
        nodes_per_pkt: stats.nodes_visited as f64 / n as f64,
        rules_per_pkt: stats.rules_compared as f64 / n as f64,
    }
}

/// Fewest closed-loop passes without stolen time a run measures
/// `throughput_mpps` over.
const MIN_CLEAN_PASSES: usize = 5;

/// The end-to-end metrics.  `throughput_mpps` is the median of the
/// closed-loop passes during which the host's `steal` counter did not
/// grow, in every run: a pass of the 2-worker engine that loses a
/// processor to the hypervisor waits for its slower worker (README,
/// "Stolen time").  A run with too few such passes fails.
pub fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    closed_mpps: &[(f64, bool)],
    open: &Outcome,
    sim: (f64, f64),
) -> Result<(), String> {
    let clean: Vec<f64> = closed_mpps
        .iter()
        .filter(|(_, stolen)| !stolen)
        .map(|&(rate, _)| rate)
        .collect();
    eprintln!(
        "closed-loop passes: {} of {} left out for stolen time",
        closed_mpps.len() - clean.len(),
        closed_mpps.len()
    );
    if clean.len() < MIN_CLEAN_PASSES {
        return Err(format!(
            "only {} closed-loop passes without stolen time, fewer than {MIN_CLEAN_PASSES}",
            clean.len()
        ));
    }
    report.metric("setup_s", median(setup_s), "s");
    report.metric("throughput_mpps", median(&clean), "Mpps");
    report.metric("latency_p50_us", open.latency_percentiles()[0] / 1e3, "us");
    report.metric("sim_cycles_per_pkt", sim.0, "cycles");
    report.metric("sim_energy_nj_per_pkt", sim.1, "nJ");
    Ok(())
}

/// The open-loop figures of the traced run: the generator's lateness, and
/// the packet-latency tail, the update latencies and the peak resident
/// set, which are too unsteady on a shared host to bound (README, "Host
/// and steadiness").
pub fn loadgen(report: &mut Report, open: &Outcome) {
    report.metric(
        "loadgen.late_p99_us",
        open.late.percentile(0.99) / 1e3,
        "us",
    );
    report.metric("latency_p99_us", open.latency_percentiles()[1] / 1e3, "us");
    let updates = &open.update_ns;
    if updates.len() < 100 {
        eprintln!(
            "warning: {} update bursts leave fewer than ten beyond p90",
            updates.len()
        );
    }
    report.metric("update_p50_us", percentile(updates, 0.5) / 1e3, "us");
    report.metric("update_p90_us", percentile(updates, 0.9) / 1e3, "us");
    report.metric("memory_mb", peak_rss_mb(), "MB");
}

/// The `pclass-algos` walk, hot cache and update layers and the
/// `pclass-engine::live` layer, on the workload's software classifiers.
/// The update layers patch the first unit with bursts of `burst_ops`
/// operations shaped like the workload's.
pub fn software_layers(
    report: &mut Report,
    units: &[Unit],
    sim: &Sim,
    seed: u64,
    burst_ops: usize,
    tally: &mut Tally,
) {
    phase("layers: algos", 1);
    let arena: usize = units
        .iter()
        .map(|u| u.classifier.arena_stats().total_bytes)
        .sum();
    report.metric("algos.arena_mb", arena as f64 / MIB, "MB");
    let pkts: usize = units.iter().map(|u| u.headers.len()).sum();
    let mut out = Vec::with_capacity(pclass_engine::DEFAULT_BATCH_SIZE);
    let mut checked = false;
    let walk_ns = time_median(5, 0.5, || {
        for u in units {
            for (c, chunk) in u
                .headers
                .chunks(pclass_engine::DEFAULT_BATCH_SIZE)
                .enumerate()
            {
                out.clear();
                u.classifier.classify_batch(chunk, &mut out);
                if !checked {
                    let at = c * pclass_engine::DEFAULT_BATCH_SIZE;
                    check_all(&out, &u.expected[at..at + chunk.len()], tally);
                }
            }
        }
        checked = true;
    });
    report.metric("algos.walk_ns_per_pkt", walk_ns / pkts as f64, "ns");
    report.metric("algos.nodes_per_pkt", sim.nodes_per_pkt, "count");
    report.metric("algos.rules_per_pkt", sim.rules_per_pkt, "count");
    report.metric("energy.sa1100_nj_per_pkt", sim.nj_per_pkt, "nJ");

    hotcache_layer(report, &units[0], tally);
    let bursts = independent_bursts(units[0].classifier, seed, 2 * UPDATE_REPS, burst_ops);
    update_layers(report, units[0].classifier, &bursts);
}

/// Bursts each valid against the classifier's initial rules, alone or in
/// any combination: deletes of distinct original rules alternating with
/// inserts of fresh ClassBench rules at distinct new ids.
fn independent_bursts(
    flat: &FlatTreeClassifier,
    seed: u64,
    bursts: usize,
    ops: usize,
) -> Vec<Vec<RuleUpdate>> {
    let mut ids: Vec<u32> = flat.live_rules().iter().map(|r| r.id).collect();
    let mut next_id = ids.iter().max().map_or(0, |m| m + 1);
    let fresh = pclass_classbench::ClassBenchGenerator::new(
        pclass_classbench::SeedStyle::Acl,
        derive(seed, 0x71),
    )
    .generate(bursts * ops);
    let mut rng = Rng::new(derive(seed, 0x72));
    let mut k = 0;
    (0..bursts)
        .map(|_| {
            (0..ops)
                .map(|_| {
                    k += 1;
                    if k % 2 == 1 {
                        RuleUpdate::Delete(ids.swap_remove(rng.below(ids.len())))
                    } else {
                        next_id += 1;
                        RuleUpdate::Insert(pclass_types::Rule::new(
                            next_id - 1,
                            fresh.rules()[k - 1].ranges,
                        ))
                    }
                })
                .collect()
        })
        .collect()
}

/// `HotCache::serve_batch` on an all-hit and an all-miss batch, with a
/// fallback that returns precomputed answers.
fn hotcache_layer(report: &mut Report, unit: &Unit, tally: &mut Tally) {
    phase("layers: hotcache", 1);
    const BATCH: usize = 512;
    let mut seen = HashSet::new();
    let distinct: Vec<usize> = (0..unit.headers.len())
        .filter(|&p| seen.insert(unit.headers[p].fields))
        .take(BATCH)
        .collect();
    assert_eq!(
        distinct.len(),
        BATCH,
        "the workload trace has {BATCH} distinct flows"
    );
    let hot = &distinct[..128];
    let hit_batch: Vec<PacketHeader> = (0..BATCH)
        .map(|i| unit.headers[hot[i % hot.len()]])
        .collect();
    let hit_answers: Vec<MatchResult> = (0..BATCH)
        .map(|i| decode(unit.expected[hot[i % hot.len()]]))
        .collect();
    let miss_batch: Vec<PacketHeader> = distinct.iter().map(|&p| unit.headers[p]).collect();
    let miss_answers: Vec<MatchResult> =
        distinct.iter().map(|&p| decode(unit.expected[p])).collect();

    let cache = HotCache::new(HotCacheConfig::default());
    let mut out = Vec::with_capacity(BATCH);
    let hot_answers: Vec<MatchResult> = hit_answers[..hot.len()].to_vec();
    cache.serve_batch(0, &hit_batch[..hot.len()], &mut out, |_, o| {
        o.extend_from_slice(&hot_answers)
    });
    let before = cache.stats();
    let hit_ns = time_median(2_000, 0.2, || {
        out.clear();
        cache.serve_batch(0, &hit_batch, &mut out, |miss, o| {
            o.extend(miss.iter().map(|h| {
                let i = hit_batch.iter().position(|x| x == h).expect("batch member");
                hit_answers[i]
            }))
        });
    });
    check_all(
        &out,
        &hit_answers.iter().map(|&r| encode(r)).collect::<Vec<_>>(),
        tally,
    );
    let hits = cache.stats().delta_since(&before);
    eprintln!(
        "hotcache: hit batch served {:.4} from the cache",
        hits.hit_rate()
    );
    report.metric("hotcache.hit_ns_per_pkt", hit_ns / BATCH as f64, "ns");

    let mut tag = 1u64;
    let miss_ns = time_median(2_000, 0.2, || {
        out.clear();
        cache.serve_batch(tag, &miss_batch, &mut out, |miss, o| {
            o.extend_from_slice(&miss_answers[..miss.len()])
        });
        tag += 1;
    });
    check_all(
        &out,
        &miss_answers.iter().map(|&r| encode(r)).collect::<Vec<_>>(),
        tally,
    );
    report.metric("hotcache.miss_ns_per_pkt", miss_ns / BATCH as f64, "ns");
}

/// Rebuild-free updates on private copies (`pclass-algos` update) and
/// through a `LiveClassifier` (`pclass-engine::live`).
fn update_layers(report: &mut Report, flat: &FlatTreeClassifier, bursts: &[Vec<RuleUpdate>]) {
    phase("layers: update", 1);
    const REPS: usize = UPDATE_REPS;
    let (mut clone_ns, mut patch_ns, mut drop_ns) = (Vec::new(), Vec::new(), Vec::new());
    for burst in &bursts[..REPS] {
        let t = Instant::now();
        let mut copy = flat.clone();
        clone_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        for u in burst {
            copy.apply(u).expect("scripted burst applies");
        }
        patch_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        drop(std::hint::black_box(copy));
        drop_ns.push(t.elapsed().as_nanos() as f64);
    }
    let mut copy = flat.clone();
    for u in bursts.iter().flatten() {
        copy.apply(u).expect("scripted burst applies");
    }
    let (clone_m, patch_m) = (median(&clone_ns), median(&patch_ns));
    report.metric("update.patch_us", patch_m / 1e3, "us");
    report.metric("update.clone_us", clone_m / 1e3, "us");
    report.metric("update.drop_us", median(&drop_ns) / 1e3, "us");
    report.metric(
        "update.reflattens",
        copy.update_stats().reflattens as f64,
        "count",
    );
    drop(copy);

    phase("layers: live", 1);
    let live = LiveClassifier::new(flat.clone());
    let apply_ns: Vec<f64> = bursts[REPS..2 * REPS]
        .iter()
        .map(|b| {
            let t = Instant::now();
            live.apply_batch(b).expect("scripted burst applies");
            t.elapsed().as_nanos() as f64
        })
        .collect();
    let apply_m = median(&apply_ns);
    report.metric("live.apply_us", apply_m / 1e3, "us");
    report.metric("live.publish_us", (apply_m - clone_m - patch_m) / 1e3, "us");
    const IDLE: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..IDLE {
        std::hint::black_box(live.snapshot());
    }
    report.metric(
        "live.snapshot_ns",
        t.elapsed().as_nanos() as f64 / f64::from(IDLE),
        "ns",
    );
    drop(live);

    // Readers arrive every 5 us while the writer publishes; each wait is
    // timed from the reader's due time, so a blocked snapshot also counts
    // against the readers queued behind it.
    phase("layers: live snapshot under publish", 2);
    let live = LiveClassifier::new(flat.clone());
    let done = AtomicBool::new(false);
    let mut waits = Hist::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            for b in &bursts[..REPS] {
                live.apply_batch(b).expect("scripted burst applies");
                std::thread::sleep(Duration::from_millis(1));
            }
            done.store(true, Ordering::Release);
        });
        let start = Instant::now();
        let mut due = 0u64;
        while !done.load(Ordering::Acquire) {
            let now = start.elapsed().as_nanos() as u64;
            if now < due {
                std::hint::spin_loop();
                continue;
            }
            std::hint::black_box(live.snapshot());
            waits.record(start.elapsed().as_nanos() as u64 - due);
            due += 5_000;
        }
    });
    report.metric(
        "live.snapshot_wait_p99_us",
        waits.percentile(0.99) / 1e3,
        "us",
    );
}

/// The serving loop of `pclass-engine` over one shared classifier: the
/// 1-worker engine against the bare walk, and 2-worker scaling and join.
pub fn engine_layers(
    report: &mut Report,
    served: SharedClassifier,
    trace: &Trace,
    expected: &[u32],
    tally: &mut Tally,
) {
    phase("layers: engine", 2);
    let headers: Vec<PacketHeader> = trace.headers().copied().collect();
    let one = EngineConfig::new()
        .workers(1)
        .engine(std::sync::Arc::clone(&served));
    let two = EngineConfig::new()
        .workers(2)
        .engine(std::sync::Arc::clone(&served));
    let (mut walk, mut e1, mut e2, mut imbalance) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut out = Vec::new();
    let start = Instant::now();
    while walk.len() < 5 || start.elapsed().as_secs_f64() < 1.0 {
        let t = Instant::now();
        for chunk in headers.chunks(pclass_engine::DEFAULT_BATCH_SIZE) {
            out.clear();
            served.classify_batch(chunk, &mut out);
        }
        walk.push(t.elapsed().as_nanos() as f64);
        let run = one.classify_trace(trace);
        e1.push(run.report.wall_ns as f64);
        check_all(&run.results, expected, tally);
        let run = two.classify_trace(trace);
        e2.push(run.report.wall_ns as f64);
        let walls: Vec<f64> = run
            .report
            .per_worker
            .iter()
            .map(|w| w.wall_ns as f64)
            .collect();
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        imbalance.push(walls.iter().copied().fold(0.0, f64::max) / mean - 1.0);
    }
    let n = headers.len() as f64;
    report.metric(
        "engine.loop_ns_per_pkt",
        (median(&e1) - median(&walk)) / n,
        "ns",
    );
    report.metric("engine.scaling_2w", median(&e1) / median(&e2), "ratio");
    report.metric("engine.join_imbalance", median(&imbalance), "ratio");
}

/// The paper's accelerator (`pclass-core`) and its energy model
/// (`pclass-energy`) on a ruleset that fits the 1024-word memory.
pub fn core_layers(
    report: &mut Report,
    rs: &RuleSet,
    trace: &Trace,
    expected: &[u32],
    tally: &mut Tally,
) {
    phase("layers: core", 2);
    let config = BuildConfig::paper_defaults(CutAlgorithm::HyperCuts);
    let mut tree = None;
    let build_ns = time_median(5, 0.0, || {
        tree = Some(HwTree::build(rs, &config).expect("the paper's ruleset builds"));
    });
    let tree = tree.expect("built at least once");
    let mut program = None;
    let mut encode_ns = Vec::new();
    for _ in 0..5 {
        let copy = tree.clone();
        let t = Instant::now();
        program = Some(
            HardwareProgram::from_tree(copy, &config, DEFAULT_WORD_CAPACITY).expect("program fits"),
        );
        encode_ns.push(t.elapsed().as_nanos() as f64);
    }
    let program = program.expect("encoded at least once");
    report.metric("core.tree_build_ms", build_ns / 1e6, "ms");
    report.metric("core.encode_ms", median(&encode_ns) / 1e6, "ms");
    report.metric("core.words", program.word_count() as f64, "words");

    let n = trace.len() as f64;
    let accel = Accelerator::new(&program);
    let mut sim = None;
    let sim_ns = time_median(3, 0.5, || sim = Some(accel.classify_trace(trace)));
    let sim = sim.expect("simulated at least once");
    check_all(&sim.results, expected, tally);
    let parallel = ParallelAccelerator::new(&program, 2);
    let mut par = None;
    let par_ns = time_median(3, 0.5, || par = Some(parallel.classify_trace(trace)));
    check_all(
        &par.expect("simulated at least once").results,
        expected,
        tally,
    );
    report.metric("core.sim_ns_per_pkt", sim_ns / n, "ns");
    report.metric("core.parallel_ns_per_pkt", par_ns / n, "ns");
    report.metric(
        "core.accesses_per_pkt",
        sim.memory_accesses as f64 / n,
        "count",
    );
    report.metric(
        "energy.asic_nj_per_pkt",
        AcceleratorEnergyModel::asic().energy_per_packet_j(&sim) * 1e9,
        "nJ",
    );
    report.metric(
        "energy.fpga_nj_per_pkt",
        AcceleratorEnergyModel::fpga().energy_per_packet_j(&sim) * 1e9,
        "nJ",
    );
}

/// A serving front end driven chunk by chunk in the traced phase.
pub trait Front {
    /// Number of chunks in one pass.
    fn chunks(&self) -> usize;
    /// Packets in one pass.
    fn packets(&self) -> usize;
    /// Builds the front end's input for chunk `c`.
    fn prep(&mut self, c: usize);
    /// Calls the front end on the prepared input.
    fn call(&mut self);
    /// Checks the decisions of the last call.
    fn check(&mut self, tally: &mut Tally);
    /// Cumulative hot-cache counters, when the front end has a cache.
    fn cache_stats(&self) -> Option<CacheStats>;
}

/// The traced phase: passes over the workload's traffic through the
/// front end on one thread, alternately with spans recorded and not.
/// Reports the layers' self times, what the spans leave unexplained,
/// the tracing overhead, and the cache's hit ratio and walked share.
pub fn traced_phase(
    report: &mut Report,
    front: &mut impl Front,
    probe: &ProbeState,
    label: &str,
    tally: &mut Tally,
) {
    phase("traced", 1);
    const PAIRS: usize = 5;
    let rec = &probe.rec;
    // One untimed pass warms the caches.
    for c in 0..front.chunks() {
        front.prep(c);
        front.call();
        front.check(tally);
    }
    let cache_before = front.cache_stats();
    let walked_before = probe.walked.load(Ordering::Relaxed);
    let (mut on_ns, mut off_ns) = (Vec::new(), Vec::new());
    let mut spans = Vec::new();
    for i in 0..2 * PAIRS {
        let on = (i % 2 == 0) == (i / 2 % 2 == 0);
        rec.set_on(on);
        let t = Instant::now();
        for c in 0..front.chunks() {
            rec.record("prep", || front.prep(c));
            rec.record("front", || front.call());
            rec.record("check", || front.check(tally));
        }
        let wall = t.elapsed().as_nanos() as f64;
        rec.set_on(false);
        if on {
            on_ns.push(wall);
            spans.extend(rec.take());
        } else {
            off_ns.push(wall);
        }
    }
    let served = (2 * PAIRS * front.packets()) as f64;
    let walked = (probe.walked.load(Ordering::Relaxed) - walked_before) as f64;
    let hit_ratio = match (front.cache_stats(), cache_before) {
        (Some(after), Some(before)) => after.delta_since(&before).hit_rate(),
        _ => 0.0,
    };
    let (own, roots) = spans::self_times(&spans);
    let traced_wall: f64 = on_ns.iter().sum();
    let pkts = (PAIRS * front.packets()) as f64;
    let get = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let unexplained = (traced_wall - roots as f64) / traced_wall;
    eprintln!(
        "traced: {} spans; self ns/pkt front {:.1} walk {:.1} prep {:.1} check {:.1}; unexplained {:.4} (tolerance {UNEXPLAINED_TOLERANCE})",
        spans.len(),
        get("front") / pkts,
        get("walk") / pkts,
        get("prep") / pkts,
        get("check") / pkts,
        unexplained
    );
    if unexplained.abs() > UNEXPLAINED_TOLERANCE {
        tally.record(false, || {
            format!("traced phase leaves {unexplained:.4} of its wall time unexplained")
        });
    }
    report.metric("hotcache.hit_ratio", hit_ratio, "ratio");
    report.metric("hotcache.walked_frac", walked / served, "ratio");
    report.metric(
        "trace.overhead_frac",
        median(&on_ns) / median(&off_ns) - 1.0,
        "ratio",
    );
    report.metric("trace.front_self_ns_per_pkt", get("front") / pkts, "ns");
    report.metric("trace.walk_self_ns_per_pkt", get("walk") / pkts, "ns");
    report.metric(
        "trace.bench_self_ns_per_pkt",
        (get("prep") + get("check")) / pkts,
        "ns",
    );
    report.metric("trace.unexplained_frac", unexplained, "ratio");
    if let Ok(exe) = std::env::current_exe() {
        let path = exe.with_file_name(format!("spans-{label}.tsv"));
        match spans::write_out(&spans, &path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write spans: {e}"),
        }
    }
}

/// Rules of the accelerator program the core layers measure on the
/// software workloads (the first rules of their largest ruleset), and the
/// packets of its trace.
pub const CORE_RULES: usize = 2_000;
pub const CORE_TRACE: usize = 16_384;
/// Bursts timed per update-layer figure.
const UPDATE_REPS: usize = 7;

/// The `pclass-engine::tenant` layer: a 1-worker router over `tenants`
/// serving their interleaved traffic, against each tenant served solo;
/// then evictions and readmissions of the tenant `readmit` rebuilds
/// (the last one).
pub fn tenant_layers<C: Classifier + Clone + Send + Sync>(
    report: &mut Report,
    tenants: Vec<(pclass_engine::TenantSpec, C)>,
    traces: &[Trace],
    expected: &[&[u32]],
    cache: Option<HotCacheConfig>,
    readmit: impl Fn() -> (pclass_engine::TenantSpec, C),
    tally: &mut Tally,
) {
    phase("layers: tenant", 1);
    let mut config = EngineConfig::new().workers(1);
    if let Some(c) = cache {
        config = config.hot_cache(c);
    }
    let router = config.tenant_router(tenants);
    let ids = router.tenant_ids();
    let parts: Vec<_> = ids.iter().copied().zip(traces).collect();
    let tagged = router.interleave("layers", &parts);
    let pkts = tagged.len() as f64;
    let (mut route, mut wall, mut solo) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while wall.len() < 5 || start.elapsed().as_secs_f64() < 1.0 {
        let run = router.classify_tagged(&tagged);
        let busy: u64 = run.tenants.iter().map(|t| t.busy_ns).sum();
        route.push((run.report.wall_ns as f64 - busy as f64) / pkts);
        wall.push(run.report.wall_ns as f64);
        for (t, &id) in ids.iter().enumerate() {
            check_all(&tagged.tenant_results(id, &run.results), expected[t], tally);
        }
        solo.push(
            ids.iter()
                .zip(traces)
                .map(|(&id, trace)| router.classify_solo(id, trace).report.wall_ns as f64)
                .sum::<f64>(),
        );
    }
    report.metric("tenant.route_ns_per_pkt", median(&route), "ns");
    report.metric(
        "tenant.router_vs_solo",
        median(&solo) / median(&wall),
        "ratio",
    );
    report.metric(
        "tenant.memory_mb",
        router.memory_in_use() as f64 / MIB,
        "MB",
    );
    let (mut admit, mut evict) = (Vec::new(), Vec::new());
    let mut id = *ids.last().expect("at least one tenant");
    for _ in 0..5 {
        let t = Instant::now();
        router.evict(id).expect("tenant is live");
        evict.push(t.elapsed().as_nanos() as f64);
        let (spec, classifier) = readmit();
        let t = Instant::now();
        id = router.admit(spec, classifier).expect("readmission fits");
        admit.push(t.elapsed().as_nanos() as f64);
    }
    report.metric("tenant.admit_us", median(&admit) / 1e3, "us");
    report.metric("tenant.evict_us", median(&evict) / 1e3, "us");
}

/// Packets per front-end call in the traced phase.
pub const CHUNK: usize = 256;

/// The single-ruleset front ends, served a trace per call.
pub trait ServesTraces {
    fn serve(&self, trace: &Trace) -> Vec<MatchResult>;
    fn cache(&self) -> Option<CacheStats>;
}

impl ServesTraces for pclass_engine::Engine {
    fn serve(&self, trace: &Trace) -> Vec<MatchResult> {
        self.classify_trace(trace).results
    }

    fn cache(&self) -> Option<CacheStats> {
        self.cache_stats()
    }
}

impl<C: Classifier + Clone + Send + Sync> ServesTraces for pclass_engine::LiveEngine<C> {
    fn serve(&self, trace: &Trace) -> Vec<MatchResult> {
        self.classify_trace(trace).results
    }

    fn cache(&self) -> Option<CacheStats> {
        self.cache_stats()
    }
}

/// A [`Front`] over an `Engine` or `LiveEngine`, a chunk of the trace
/// per call.
pub struct TraceFront<'a, E> {
    engine: &'a E,
    headers: &'a [PacketHeader],
    expected: &'a [u32],
    chunk: usize,
    input: Trace,
    results: Vec<MatchResult>,
}

impl<'a, E: ServesTraces> TraceFront<'a, E> {
    pub fn new(engine: &'a E, headers: &'a [PacketHeader], expected: &'a [u32]) -> Self {
        TraceFront {
            engine,
            headers,
            expected,
            chunk: 0,
            input: Trace::from_headers("chunk", Vec::new()),
            results: Vec::new(),
        }
    }
}

impl<E: ServesTraces> Front for TraceFront<'_, E> {
    fn chunks(&self) -> usize {
        self.headers.len().div_ceil(CHUNK)
    }

    fn packets(&self) -> usize {
        self.headers.len()
    }

    fn prep(&mut self, c: usize) {
        self.chunk = c;
        let end = (c * CHUNK + CHUNK).min(self.headers.len());
        self.input = Trace::from_headers("chunk", self.headers[c * CHUNK..end].to_vec());
    }

    fn call(&mut self) {
        self.results = self.engine.serve(&self.input);
    }

    fn check(&mut self, tally: &mut Tally) {
        let at = self.chunk * CHUNK;
        check_all(
            &self.results,
            &self.expected[at..at + self.results.len()],
            tally,
        );
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.engine.cache()
    }
}
