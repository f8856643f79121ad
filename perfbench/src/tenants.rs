//! `tenants-churn`: sixteen tenants behind one `TenantRouter` (one
//! 10k-rule and fifteen 500-rule acl sets, weight 4 on the big one),
//! served by `hicuts-flat` with per-tenant cache slices and Zipf traffic.
//! Single-rule updates stream into three tenants, one small tenant is
//! evicted and readmitted every round, and every round keeps one burst
//! that ends in an invalid delete.

use crate::layers::{self, check_all, Front, Sim, Unit};
use crate::openloop::{self, Plan, Server, Step, Writer, OPEN_SHARE, SLICES};
use crate::oracle::{check_window, encode, Cursor, Expected, Tally};
use crate::rng::{derive, Rng};
use crate::spans::{Probe, ProbeState};
use crate::{phase, Args, Report};
use pclass_algos::{
    FlatTreeClassifier, HiCutsClassifier, HiCutsConfig, HotCacheConfig, RuleUpdate,
    UpdatableClassifier,
};
use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
use pclass_engine::{
    EngineConfig, LiveClassifier, TaggedPacket, TaggedTrace, TenantId, TenantRouter, TenantSpec,
};
use pclass_types::{CacheStats, FieldRange, MatchResult, PacketHeader, Rule, RuleSet, Trace};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TENANTS: usize = 16;
const BIG_RULES: usize = 10_000;
const SMALL_RULES: usize = 500;
const BIG_WEIGHT: u32 = 4;
/// Per-tenant rulesets are fixed, each from its own seed; `--seed`
/// drives the traffic and the updates.
const RULESET_SEED: u64 = 0x7E57_0000;
/// Trace packets per unit of weight.
const TRACE_UNIT: usize = 8_192;
const ZIPF: f64 = 1.0;
/// Total hot-cache entries, sliced over the tenants by weight.
const CACHE: HotCacheConfig = HotCacheConfig {
    capacity: 8_192,
    assoc: HotCacheConfig::DEFAULT_ASSOC,
};
const RATE_MPPS: f64 = 0.1;
const INTERVAL: Duration = Duration::from_millis(10);
/// Tenants that receive the update stream.
const UPDATED: [usize; 3] = [0, 1, 2];
/// The tenant whose bursts keep the failing final delete.
const FAULTY: usize = 1;
/// The tenant evicted and readmitted every round.
const CYCLED: usize = TENANTS - 1;
/// One round of the writer's script: normal single-rule bursts, one
/// burst ending in an invalid delete, and an eviction and a readmission.
const ROUND: usize = 40;
const FAIL_SLOT: usize = 19;
const EVICT_SLOT: usize = 38;
const ADMIT_SLOT: usize = 39;
/// A rule id no burst ever makes live: the failing bursts delete it.
const BOGUS_ID: u32 = 4_000_000_000;
/// Ids of the failing bursts' inserts, far above the fresh inserts but
/// within the sparse-id reach the program accepts.
const FAIL_ID_BASE: u32 = 40_000;

fn weight(t: usize) -> u32 {
    if t == 0 {
        BIG_WEIGHT
    } else {
        1
    }
}

fn spec(t: usize) -> TenantSpec {
    TenantSpec::new(format!("t{t}")).weight(weight(t))
}

struct Tenant {
    rs: RuleSet,
    trace: Trace,
    headers: Vec<PacketHeader>,
    exp: Expected,
}

enum Op {
    Burst(usize, Vec<RuleUpdate>),
    /// Inserts the rule, then deletes an absent id.
    Failing(Rule),
    Evict,
    Admit,
}

fn inputs(seed: u64) -> Result<Vec<Tenant>, String> {
    (0..TENANTS)
        .map(|t| {
            let size = if t == 0 { BIG_RULES } else { SMALL_RULES };
            let rs = ClassBenchGenerator::new(SeedStyle::Acl, RULESET_SEED + t as u64)
                .generate_named(size, format!("acl1_{size}#t{t}"));
            let trace = TraceGenerator::new(&rs, derive(seed, 100 + t as u64))
                .zipf(ZIPF)
                .generate(TRACE_UNIT * weight(t) as usize);
            let headers: Vec<PacketHeader> = trace.headers().copied().collect();
            let mut rng = Rng::new(derive(seed, 200 + t as u64));
            let sample: Vec<usize> = (0..512).map(|_| rng.below(headers.len())).collect();
            let exp = Expected::new(&rs, &headers, &sample)?;
            Ok(Tenant {
                rs,
                trace,
                headers,
                exp,
            })
        })
        .collect()
}

/// The interleaved arrival stream: each arrival picks a tenant with
/// probability proportional to its weight and takes that tenant's next
/// trace packet.
fn arrival_order(tenants: &[Tenant], seed: u64) -> Vec<(u16, u32)> {
    let total: usize = tenants.iter().map(|t| t.headers.len()).sum();
    let weights: u32 = (0..TENANTS).map(weight).sum();
    let mut rng = Rng::new(derive(seed, 6));
    let mut next = [0usize; TENANTS];
    (0..total)
        .map(|_| {
            let mut pick = rng.below(weights as usize) as u32;
            let mut t = 0;
            while pick >= weight(t) {
                pick -= weight(t);
                t += 1;
            }
            let p = next[t] % tenants[t].headers.len();
            next[t] += 1;
            (t as u16, p as u32)
        })
        .collect()
}

/// The writer's script, whole rounds.  Normal bursts rotate over the
/// updated tenants and alternate a delete of a live rule with an insert
/// of a fresh rule at a new lowest-priority id; the failing bursts insert
/// an exact-match rule on a header the faulty tenant's traffic never
/// carries, so its publication changes no decision.
fn script(tenants: &mut [Tenant], seed: u64, rounds: usize) -> Result<Vec<Op>, String> {
    let mut rng = Rng::new(derive(seed, 3));
    let fresh = ClassBenchGenerator::new(SeedStyle::Acl, derive(seed, 4)).generate(rounds * ROUND);
    let mut live: Vec<Vec<u32>> = tenants
        .iter()
        .map(|t| t.exp.book().ids().collect())
        .collect();
    let mut next_id: Vec<u32> = tenants.iter().map(|t| t.exp.book().max_id() + 1).collect();
    let mut deletes = [true; TENANTS];
    let mut ops = Vec::with_capacity(rounds * ROUND);
    let mut normal = 0usize;
    for round in 0..rounds {
        for slot in 0..ROUND {
            let op = match slot {
                FAIL_SLOT => {
                    let spec = *tenants[FAULTY].rs.spec();
                    let unseen = loop {
                        let fields: Vec<u32> = pclass_types::Dimension::ALL
                            .iter()
                            .map(|&d| (rng.next_u64() & u64::from(spec.max_value(d))) as u32)
                            .collect();
                        let ranges = [0, 1, 2, 3, 4].map(|i| FieldRange::new(fields[i], fields[i]));
                        let rule = Rule::new(FAIL_ID_BASE + round as u32, ranges);
                        if !tenants[FAULTY].exp.any_covered(&rule) {
                            break rule;
                        }
                    };
                    Op::Failing(unseen)
                }
                EVICT_SLOT => Op::Evict,
                ADMIT_SLOT => Op::Admit,
                _ => {
                    let t = UPDATED[normal % UPDATED.len()];
                    normal += 1;
                    let update = if deletes[t] {
                        let at = rng.below(live[t].len());
                        RuleUpdate::Delete(live[t].swap_remove(at))
                    } else {
                        let rule = Rule::new(next_id[t], fresh.rules()[ops.len()].ranges);
                        live[t].push(next_id[t]);
                        next_id[t] += 1;
                        RuleUpdate::Insert(rule)
                    };
                    deletes[t] = !deletes[t];
                    tenants[t].exp.push_burst(std::slice::from_ref(&update))?;
                    Op::Burst(t, vec![update])
                }
            };
            ops.push(op);
        }
    }
    Ok(ops)
}

/// Builds every tenant's classifier and the router over them.  Returns
/// the summed tree-build and flatten times too.
fn setup(tenants: &[Tenant], workers: usize) -> (TenantRouter<FlatTreeClassifier>, [f64; 3]) {
    let start = Instant::now();
    let (mut tree_s, mut flat_s) = (0.0, 0.0);
    let mut roster = Vec::with_capacity(TENANTS);
    for (t, tenant) in tenants.iter().enumerate() {
        let t0 = Instant::now();
        let tree = HiCutsClassifier::build(&tenant.rs, &HiCutsConfig::paper_defaults());
        let t1 = Instant::now();
        roster.push((spec(t), tree.flatten()));
        tree_s += (t1 - t0).as_secs_f64();
        flat_s += t1.elapsed().as_secs_f64();
    }
    let router = EngineConfig::new()
        .workers(workers)
        .hot_cache(CACHE)
        .tenant_router(roster);
    (router, [tree_s, flat_s, start.elapsed().as_secs_f64()])
}

/// The cycled tenant's handle as the writer last published it.
#[derive(Clone, Copy)]
struct Handle {
    version: u64,
    id: TenantId,
    live: bool,
    /// Set while an eviction is in flight.
    moving: bool,
}

/// Generation → script step of each updated tenant, written by the
/// writer after each publish.
struct GenSteps(Vec<Vec<AtomicU32>>);

const UNKNOWN: u32 = u32::MAX;

impl GenSteps {
    fn new(capacity: usize) -> GenSteps {
        GenSteps(
            UPDATED
                .iter()
                .map(|_| {
                    let v: Vec<AtomicU32> =
                        (0..capacity).map(|_| AtomicU32::new(UNKNOWN)).collect();
                    v[0].store(0, Ordering::Release);
                    v
                })
                .collect(),
        )
    }

    fn set(&self, u: usize, generation: u64, step: usize) {
        self.0[u][generation as usize].store(step as u32, Ordering::Release);
    }

    /// The step of a published generation, waiting out the moment between
    /// a publish and the writer's record of it.
    fn get(&self, u: usize, generation: u64) -> Option<usize> {
        let slot = &self.0[u][generation as usize];
        let start = Instant::now();
        loop {
            let s = slot.load(Ordering::Acquire);
            if s != UNKNOWN {
                return Some(s as usize);
            }
            if start.elapsed() > Duration::from_secs(1) {
                return None;
            }
            std::hint::spin_loop();
        }
    }
}

struct TenantsServer<'a> {
    router: &'a TenantRouter<FlatTreeClassifier>,
    ids: Vec<TenantId>,
    lives: Vec<Arc<LiveClassifier<FlatTreeClassifier>>>,
    tenants: &'a [Tenant],
    order: &'a [(u16, u32)],
    handle: &'a Mutex<Handle>,
    steps: &'a GenSteps,
    cursors: Vec<Cursor<'a>>,
    before_gen: Vec<u64>,
    before_handle: Handle,
    pkts: Vec<Vec<u32>>,
    got: Vec<Vec<MatchResult>>,
    tally: Tally,
}

impl Server for TenantsServer<'_> {
    fn before(&mut self) {
        for (u, live) in self.lives.iter().enumerate() {
            self.before_gen[u] = live.generation();
        }
        self.before_handle = *self.handle.lock().expect("handle lock poisoned");
    }

    fn serve(&mut self, arrivals: &[u64], out: &mut Vec<MatchResult>) {
        let n = self.order.len() as u64;
        let cycled = self.before_handle.id;
        let batch = arrivals
            .iter()
            .map(|&k| {
                let (t, p) = self.order[(k % n) as usize];
                let t = usize::from(t);
                TaggedPacket {
                    tenant: if t == CYCLED { cycled } else { self.ids[t] },
                    header: self.tenants[t].headers[p as usize],
                }
            })
            .collect();
        out.extend(
            self.router
                .classify_tagged(&TaggedTrace::new("open", batch))
                .results,
        );
    }

    fn check(&mut self, arrivals: &[u64], out: &[MatchResult]) {
        let after = *self.handle.lock().expect("handle lock poisoned");
        let before = self.before_handle;
        let settled = before.version == after.version && !before.moving && !after.moving;
        let n = self.order.len() as u64;
        for v in &mut self.pkts {
            v.clear();
        }
        for v in &mut self.got {
            v.clear();
        }
        for (&k, &got) in arrivals.iter().zip(out) {
            let (t, p) = self.order[(k % n) as usize];
            let t = usize::from(t);
            if let Some(u) = UPDATED.iter().position(|&x| x == t) {
                self.pkts[u].push(p);
                self.got[u].push(got);
                continue;
            }
            let want = self.tenants[t].exp.base()[p as usize];
            let ok = if t != CYCLED || (settled && before.live) {
                encode(got) == want
            } else if settled {
                got == MatchResult::NoMatch
            } else {
                encode(got) == want || got == MatchResult::NoMatch
            };
            self.tally.record(ok, || {
                format!("tenant {t} packet {p}: got {got:?}, expected {want}")
            });
        }
        for (u, &t) in UPDATED.iter().enumerate() {
            if self.pkts[u].is_empty() {
                continue;
            }
            let hi = self.lives[u].generation();
            let lo = self.before_gen[u];
            match (self.steps.get(u, lo), self.steps.get(u, hi)) {
                (Some(slo), Some(shi)) => check_window(
                    &mut self.cursors[u],
                    slo,
                    shi,
                    &self.pkts[u],
                    &self.got[u],
                    &mut self.tally,
                ),
                _ => self.tally.record(false, || {
                    format!("tenant {t}: generation {hi} was never recorded")
                }),
            }
        }
    }
}

struct TenantsWriter<'a> {
    router: &'a TenantRouter<FlatTreeClassifier>,
    lives: Vec<Arc<LiveClassifier<FlatTreeClassifier>>>,
    script: &'a [Op],
    handle: &'a Mutex<Handle>,
    steps: &'a GenSteps,
    applied: Vec<usize>,
    readmit: FlatTreeClassifier,
}

impl Writer for TenantsWriter<'_> {
    fn step(&mut self, i: usize) -> Step {
        match &self.script[i] {
            Op::Burst(t, burst) => {
                let u = UPDATED.iter().position(|x| x == t).expect("updated tenant");
                let result = self.lives[u].apply_batch(burst);
                let visible = Instant::now();
                if result.is_ok() {
                    self.applied[u] += 1;
                }
                self.steps
                    .set(u, self.lives[u].generation(), self.applied[u]);
                Step {
                    visible: Some(visible),
                    failed: result.is_err(),
                }
            }
            Op::Failing(rule) => {
                // The burst must be refused; the fault is that its valid
                // prefix is published anyway.  A visible prefix is counted
                // and deleted again, so traffic stays correct.
                let u = UPDATED
                    .iter()
                    .position(|&x| x == FAULTY)
                    .expect("faulty tenant is updated");
                let live = &self.lives[u];
                let result =
                    live.apply_batch(&[RuleUpdate::Insert(*rule), RuleUpdate::Delete(BOGUS_ID)]);
                self.steps.set(u, live.generation(), self.applied[u]);
                let visible = live.snapshot().live_rules().iter().any(|r| r.id == rule.id);
                if visible {
                    live.apply_batch(&[RuleUpdate::Delete(rule.id)])
                        .expect("the published prefix rule is live");
                    self.steps.set(u, live.generation(), self.applied[u]);
                }
                Step {
                    visible: None,
                    failed: visible || result.is_ok(),
                }
            }
            Op::Evict => {
                let mut h = *self.handle.lock().expect("handle lock poisoned");
                h.version += 1;
                h.moving = true;
                *self.handle.lock().expect("handle lock poisoned") = h;
                let result = self.router.evict(h.id);
                h.version += 1;
                h.moving = false;
                h.live = false;
                *self.handle.lock().expect("handle lock poisoned") = h;
                Step {
                    visible: None,
                    failed: result.is_err(),
                }
            }
            Op::Admit => {
                let result = self.router.admit(spec(CYCLED), self.readmit.clone());
                let mut h = self.handle.lock().expect("handle lock poisoned");
                if let Ok(id) = result {
                    *h = Handle {
                        version: h.version + 1,
                        id,
                        live: true,
                        moving: false,
                    };
                }
                Step {
                    visible: None,
                    failed: result.is_err(),
                }
            }
        }
    }
}

/// The traced front end: the 1-worker router, a chunk of the arrival
/// stream per call.
struct RouterFront<'a> {
    router: TenantRouter<Probe<FlatTreeClassifier>>,
    ids: Vec<TenantId>,
    tenants: &'a [Tenant],
    order: &'a [(u16, u32)],
    chunk: usize,
    input: TaggedTrace,
    results: Vec<MatchResult>,
}

impl Front for RouterFront<'_> {
    fn chunks(&self) -> usize {
        self.order.len().div_ceil(layers::CHUNK)
    }

    fn packets(&self) -> usize {
        self.order.len()
    }

    fn prep(&mut self, c: usize) {
        self.chunk = c;
        let end = (c * layers::CHUNK + layers::CHUNK).min(self.order.len());
        let batch = self.order[c * layers::CHUNK..end]
            .iter()
            .map(|&(t, p)| TaggedPacket {
                tenant: self.ids[usize::from(t)],
                header: self.tenants[usize::from(t)].headers[p as usize],
            })
            .collect();
        self.input = TaggedTrace::new("chunk", batch);
    }

    fn call(&mut self) {
        self.results = self.router.classify_tagged(&self.input).results;
    }

    fn check(&mut self, tally: &mut Tally) {
        let at = self.chunk * layers::CHUNK;
        let want: Vec<u32> = self.order[at..at + self.results.len()]
            .iter()
            .map(|&(t, p)| self.tenants[usize::from(t)].exp.base()[p as usize])
            .collect();
        check_all(&self.results, &want, tally);
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        let mut total = CacheStats::default();
        for &id in &self.ids {
            total.merge(&self.router.cache_stats(id)?);
        }
        Some(total)
    }
}

fn per_layer(
    report: &mut Report,
    args: &Args,
    tenants: &[Tenant],
    order: &[(u16, u32)],
    flats: &[FlatTreeClassifier],
    tally: &mut Tally,
) -> Sim {
    let units: Vec<Unit> = tenants
        .iter()
        .zip(flats)
        .map(|(t, f)| Unit {
            classifier: f,
            headers: &t.headers,
            expected: t.exp.base(),
        })
        .collect();
    let sim = layers::sa1100_sample(&units, args.seed, tally);
    if !args.trace {
        return sim;
    }
    layers::software_layers(report, &units, &sim, args.seed, 1, tally);
    layers::engine_layers(
        report,
        Arc::new(flats[0].clone()),
        &tenants[0].trace,
        tenants[0].exp.base(),
        tally,
    );
    let traces: Vec<Trace> = tenants.iter().map(|t| t.trace.clone()).collect();
    let expected: Vec<&[u32]> = tenants.iter().map(|t| t.exp.base()).collect();
    layers::tenant_layers(
        report,
        (0..TENANTS).map(|t| (spec(t), flats[t].clone())).collect(),
        &traces,
        &expected,
        Some(CACHE),
        || (spec(CYCLED), flats[CYCLED].clone()),
        tally,
    );
    let big = &tenants[0].rs;
    let small = big.truncated(
        layers::CORE_RULES,
        format!("{}_first{}", big.name(), layers::CORE_RULES),
    );
    let small_trace =
        TraceGenerator::new(&small, derive(args.seed, 6)).generate(layers::CORE_TRACE);
    let small_expected: Vec<u32> = small_trace
        .headers()
        .map(|h| encode(small.classify_linear(h)))
        .collect();
    layers::core_layers(report, &small, &small_trace, &small_expected, tally);

    let probe = ProbeState::new();
    let router = EngineConfig::new()
        .workers(1)
        .hot_cache(CACHE)
        .tenant_router((0..TENANTS).map(|t| (spec(t), Probe::new(flats[t].clone(), &probe))));
    let ids = router.tenant_ids();
    let mut front = RouterFront {
        router,
        ids,
        tenants,
        order,
        chunk: 0,
        input: TaggedTrace::new("chunk", Vec::new()),
        results: Vec::new(),
    };
    layers::traced_phase(
        report,
        &mut front,
        &probe,
        &format!("tenants-churn-{}", args.seed),
        tally,
    );
    sim
}

pub fn run(args: &Args) -> Result<Report, String> {
    let slice_s = args.seconds * OPEN_SHARE / SLICES as f64;
    let rounds = ((slice_s / (INTERVAL.as_secs_f64() * ROUND as f64)) as usize).max(1);
    let plan = Plan {
        rate_mpps: RATE_MPPS,
        max_batch: 64,
        interval: INTERVAL,
        steps: rounds * ROUND,
        lead: Duration::from_millis(50),
        window: INTERVAL * 10,
    };

    phase("inputs", 2);
    let mut tenants = inputs(args.seed)?;
    let order = arrival_order(&tenants, args.seed);
    let ops = script(&mut tenants, args.seed, SLICES * rounds)?;
    let mut report = Report::default();
    let mut tally = Tally::default();

    phase("setup", 1);
    let mut setup_s = Vec::new();
    let mut built = None;
    let started = Instant::now();
    while setup_s.is_empty() || (!args.trace && started.elapsed() < crate::SETUP_SPAN) {
        drop(built.take());
        let (router, t) = setup(&tenants, 2);
        setup_s.push(t[2]);
        if args.trace {
            report.metric("algos.tree_build_s", t[0], "s");
            report.metric("algos.flatten_s", t[1], "s");
        }
        built = Some(router);
    }
    let quiescent = built.expect("at least one setup");
    for t in &tenants {
        layers::self_test(&t.exp)?;
    }
    let ids = quiescent.tenant_ids();
    let flats: Vec<FlatTreeClassifier> = ids
        .iter()
        .map(|&id| (*quiescent.live(id).snapshot()).clone())
        .collect();
    let sim = per_layer(&mut report, args, &tenants, &order, &flats, &mut tally);

    // The closed-loop passes serve the quiescent 2-worker router; the
    // open-loop slices serve a 1-worker router that takes the updates.
    let tagged = TaggedTrace::new(
        "closed",
        order
            .iter()
            .map(|&(t, p)| TaggedPacket {
                tenant: ids[usize::from(t)],
                header: tenants[usize::from(t)].headers[p as usize],
            })
            .collect(),
    );
    let want: Vec<u32> = order
        .iter()
        .map(|&(t, p)| tenants[usize::from(t)].exp.base()[p as usize])
        .collect();
    let router = EngineConfig::new()
        .workers(1)
        .hot_cache(CACHE)
        .tenant_router((0..TENANTS).map(|t| (spec(t), flats[t].clone())));
    let ids = router.tenant_ids();
    let lives: Vec<_> = UPDATED.iter().map(|&t| router.live(ids[t])).collect();
    let handle = Mutex::new(Handle {
        version: 0,
        id: ids[CYCLED],
        live: true,
        moving: false,
    });
    let steps = GenSteps::new(4 * ops.len() + 8);
    let mut server = TenantsServer {
        router: &router,
        ids: ids.clone(),
        lives: lives.clone(),
        tenants: &tenants,
        order: &order,
        handle: &handle,
        steps: &steps,
        cursors: UPDATED
            .iter()
            .map(|&t| Cursor::new(&tenants[t].exp))
            .collect(),
        before_gen: vec![0; UPDATED.len()],
        before_handle: *handle.lock().expect("handle lock poisoned"),
        pkts: vec![Vec::new(); UPDATED.len()],
        got: vec![Vec::new(); UPDATED.len()],
        tally: Tally::default(),
    };
    let mut writer = TenantsWriter {
        router: &router,
        lives,
        script: &ops,
        handle: &handle,
        steps: &steps,
        applied: vec![0; UPDATED.len()],
        readmit: flats[CYCLED].clone(),
    };
    let (rates, open) = openloop::alternate(
        args.seconds,
        args.seed,
        &plan,
        &mut server,
        &mut writer,
        |server| {
            let run = quiescent.classify_tagged(&tagged);
            check_all(&run.results, &want, &mut server.tally);
            run.report.mpps
        },
    );
    tally.merge(server.tally);

    report.correct = layers::verdict(&tally, &open);
    report.attempted = open.ops;
    report.failed = open.failed;
    if args.trace {
        layers::loadgen(&mut report, &open);
    } else {
        layers::end_to_end(
            &mut report,
            &setup_s,
            &rates,
            &open,
            (sim.cycles_per_pkt, sim.nj_per_pkt),
        )?;
    }
    Ok(report)
}
