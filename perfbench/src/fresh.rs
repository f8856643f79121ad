//! `fresh-64k`: one 64k-rule acl ruleset served by `hypercuts-flat`
//! through `LiveEngine` behind the default hot cache, with uniform
//! ClassBench traffic and 4-op delete/insert bursts.

use crate::layers::{self, Sim, TraceFront, Unit};
use crate::openloop::{self, Plan, Server, Step, Writer, OPEN_SHARE, SLICES};
use crate::oracle::{check_window, encode, Cursor, Expected, Tally};
use crate::rng::{derive, Rng};
use crate::spans::{Probe, ProbeState};
use crate::{phase, Args, Report};
use pclass_algos::{
    FlatTreeClassifier, HotCacheConfig, HyperCutsClassifier, HyperCutsConfig, RuleUpdate,
};
use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
use pclass_engine::{EngineConfig, LiveClassifier, LiveEngine, SharedClassifier, TenantSpec};
use pclass_types::{MatchResult, PacketHeader, Rule, RuleSet, Trace};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RULES: usize = 64_000;
/// The ruleset is fixed; `--seed` drives the traffic and the updates.
const RULESET_SEED: u64 = 64_000;
const TRACE_LEN: usize = 65_536;
/// Offered rate of the open-loop phase (see README: about a third busy).
const RATE_MPPS: f64 = 0.25;
/// Spacing of the update bursts (each round of the script is one burst).
const INTERVAL: Duration = Duration::from_millis(150);
const SETUPS: usize = 3;

type Live = LiveClassifier<FlatTreeClassifier>;

/// The 64k ruleset, its uniform trace and the oracle over it.
pub struct Inputs {
    pub rs: RuleSet,
    pub trace: Trace,
    pub headers: Vec<PacketHeader>,
    pub exp: Expected,
}

pub fn inputs(seed: u64) -> Result<Inputs, String> {
    let rs = ClassBenchGenerator::new(SeedStyle::Acl, RULESET_SEED)
        .generate_named(RULES, format!("acl1_{RULES}"));
    let trace = TraceGenerator::new(&rs, derive(seed, 1)).generate(TRACE_LEN);
    let headers: Vec<PacketHeader> = trace.headers().copied().collect();
    let mut rng = Rng::new(derive(seed, 2));
    let sample: Vec<usize> = (0..256).map(|_| rng.below(headers.len())).collect();
    let exp = Expected::new(&rs, &headers, &sample)?;
    Ok(Inputs {
        rs,
        trace,
        headers,
        exp,
    })
}

/// Appends `bursts` seeded 4-op bursts to the oracle's script: each
/// deletes two live rules and appends two fresh ClassBench rules at new
/// lowest-priority ids.
pub fn script(
    exp: &mut Expected,
    seed: u64,
    bursts: usize,
) -> Result<Vec<Vec<RuleUpdate>>, String> {
    let mut rng = Rng::new(derive(seed, 3));
    let fresh = ClassBenchGenerator::new(SeedStyle::Acl, derive(seed, 4)).generate(2 * bursts);
    let mut live: Vec<u32> = exp.book().ids().collect();
    let mut next_id = exp.book().max_id() + 1;
    let mut out = Vec::with_capacity(bursts);
    for b in 0..bursts {
        let mut burst = Vec::with_capacity(4);
        for k in 0..2 {
            let victim = live.swap_remove(rng.below(live.len()));
            burst.push(RuleUpdate::Delete(victim));
            burst.push(RuleUpdate::Insert(Rule::new(
                next_id,
                fresh.rules()[2 * b + k].ranges,
            )));
            live.push(next_id);
            next_id += 1;
        }
        exp.push_burst(&burst)?;
        out.push(burst);
    }
    Ok(out)
}

/// Builds the serving system from the ruleset: tree build, flatten, live
/// classifier and the 2-worker cached engine.  Returns the parts' times.
fn setup(rs: &RuleSet) -> (Arc<Live>, LiveEngine<FlatTreeClassifier>, [f64; 3]) {
    let t0 = Instant::now();
    let tree = HyperCutsClassifier::build(rs, &HyperCutsConfig::paper_defaults());
    let t1 = Instant::now();
    let flat = tree.flatten();
    drop(tree);
    let t2 = Instant::now();
    let live = Arc::new(LiveClassifier::new(flat));
    let engine = EngineConfig::new()
        .workers(2)
        .hot_cache(HotCacheConfig::default())
        .live_engine(Arc::clone(&live));
    let t3 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    (live, engine, [secs(t0, t1), secs(t1, t2), secs(t0, t3)])
}

struct FreshServer<'a> {
    engine: LiveEngine<FlatTreeClassifier>,
    headers: &'a [PacketHeader],
    cursor: Cursor<'a>,
    lo: u64,
    pkts: Vec<u32>,
    tally: Tally,
}

impl Server for FreshServer<'_> {
    fn before(&mut self) {
        self.lo = self.engine.live().generation();
    }

    fn serve(&mut self, arrivals: &[u64], out: &mut Vec<MatchResult>) {
        let n = self.headers.len() as u64;
        let batch = arrivals
            .iter()
            .map(|&k| self.headers[(k % n) as usize])
            .collect();
        out.extend(
            self.engine
                .classify_trace(&Trace::from_headers("open", batch))
                .results,
        );
    }

    fn check(&mut self, arrivals: &[u64], out: &[MatchResult]) {
        let hi = self.engine.live().generation();
        let n = self.headers.len() as u64;
        self.pkts.clear();
        self.pkts.extend(arrivals.iter().map(|&k| (k % n) as u32));
        check_window(
            &mut self.cursor,
            self.lo as usize,
            hi as usize,
            &self.pkts,
            out,
            &mut self.tally,
        );
    }
}

struct FreshWriter<'a> {
    live: &'a Live,
    script: &'a [Vec<RuleUpdate>],
}

impl Writer for FreshWriter<'_> {
    fn step(&mut self, i: usize) -> Step {
        let result = self.live.apply_batch(&self.script[i]);
        Step {
            visible: Some(Instant::now()),
            failed: result.is_err(),
        }
    }
}

fn per_layer(
    report: &mut Report,
    args: &Args,
    inp: &Inputs,
    flat: &Arc<FlatTreeClassifier>,
    tally: &mut Tally,
) -> Sim {
    let unit = Unit {
        classifier: flat,
        headers: &inp.headers,
        expected: inp.exp.base(),
    };
    let sim = layers::sa1100_sample(std::slice::from_ref(&unit), args.seed, tally);
    if !args.trace {
        return sim;
    }
    layers::software_layers(report, &[unit], &sim, args.seed, 4, tally);
    layers::engine_layers(
        report,
        Arc::clone(flat) as SharedClassifier,
        &inp.trace,
        inp.exp.base(),
        tally,
    );
    let spec = || TenantSpec::new(format!("acl1_{RULES}"));
    layers::tenant_layers(
        report,
        vec![(spec(), (**flat).clone())],
        std::slice::from_ref(&inp.trace),
        &[inp.exp.base()],
        Some(HotCacheConfig::default()),
        || (spec(), (**flat).clone()),
        tally,
    );
    let small = inp.rs.truncated(
        layers::CORE_RULES,
        format!("acl1_{RULES}_first{}", layers::CORE_RULES),
    );
    let small_trace =
        TraceGenerator::new(&small, derive(args.seed, 6)).generate(layers::CORE_TRACE);
    let small_expected: Vec<u32> = small_trace
        .headers()
        .map(|h| encode(small.classify_linear(h)))
        .collect();
    layers::core_layers(report, &small, &small_trace, &small_expected, tally);

    let probe = ProbeState::new();
    let live = Arc::new(LiveClassifier::new(Probe::new((**flat).clone(), &probe)));
    let engine = EngineConfig::new()
        .workers(1)
        .hot_cache(HotCacheConfig::default())
        .live_engine(live);
    let mut front = TraceFront::new(&engine, &inp.headers, inp.exp.base());
    layers::traced_phase(
        report,
        &mut front,
        &probe,
        &format!("fresh-64k-{}", args.seed),
        tally,
    );
    sim
}

pub fn run(args: &Args) -> Result<Report, String> {
    let slice_s = args.seconds * OPEN_SHARE / SLICES as f64;
    let plan = Plan {
        rate_mpps: RATE_MPPS,
        max_batch: 64,
        interval: INTERVAL,
        steps: ((slice_s / INTERVAL.as_secs_f64()) as usize).max(1),
        lead: Duration::from_millis(50),
        window: INTERVAL,
    };

    phase("inputs", 2);
    let mut inp = inputs(args.seed)?;
    let script = script(&mut inp.exp, args.seed, SLICES * plan.steps)?;
    let mut report = Report::default();
    let mut tally = Tally::default();

    phase("setup", 1);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(built.take());
        let (live, engine, t) = setup(&inp.rs);
        setup_s.push(t[2]);
        if args.trace {
            report.metric("algos.tree_build_s", t[0], "s");
            report.metric("algos.flatten_s", t[1], "s");
        }
        built = Some((live, engine));
    }
    let (live, engine) = built.expect("at least one setup");
    layers::self_test(&inp.exp)?;
    let sim = per_layer(&mut report, args, &inp, &live.snapshot(), &mut tally);

    let all: Vec<u32> = (0..inp.headers.len() as u32).collect();
    let mut server = FreshServer {
        engine: EngineConfig::new()
            .workers(1)
            .hot_cache(HotCacheConfig::default())
            .live_engine(Arc::clone(&live)),
        headers: &inp.headers,
        cursor: Cursor::new(&inp.exp),
        lo: 0,
        pkts: Vec::new(),
        tally: Tally::default(),
    };
    let mut writer = FreshWriter {
        live: &live,
        script: &script,
    };
    let (rates, open) = openloop::alternate(
        args.seconds,
        args.seed,
        &plan,
        &mut server,
        &mut writer,
        |server| {
            let run = engine.classify_trace(&inp.trace);
            let g = live.generation() as usize;
            check_window(
                &mut server.cursor,
                g,
                g,
                &all,
                &run.results,
                &mut server.tally,
            );
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
