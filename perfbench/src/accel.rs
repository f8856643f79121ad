//! `paper-accel`: the paper's modified HyperCuts program for `acl1_2000`
//! on the cycle-accurate accelerator, served through `Engine` via
//! `AcceleratorClassifier`.  A rule change is installed by rebuilding the
//! program.

use crate::layers::{self, Sim, TraceFront, Unit};
use crate::openloop::{self, Plan, Server, Step, Writer, OPEN_SHARE, SLICES};
use crate::oracle::{check_window, Cursor, Expected, Tally};
use crate::rng::{derive, Rng};
use crate::spans::{Probe, ProbeState};
use crate::{phase, Args, Report};
use pclass_algos::{HyperCutsClassifier, HyperCutsConfig, RuleUpdate};
use pclass_classbench::{ClassBenchGenerator, SeedStyle, TraceGenerator};
use pclass_core::builder::{BuildConfig, CutAlgorithm};
use pclass_core::{Accelerator, AcceleratorClassifier, HardwareProgram};
use pclass_energy::AcceleratorEnergyModel;
use pclass_engine::{Engine, EngineConfig, SharedClassifier, TenantSpec};
use pclass_types::{MatchResult, PacketHeader, Rule, RuleSet, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const RULES: usize = 2_000;
/// `acl1_2000` as the paper-reproduction tables build it: the first 2000
/// rules of a 2191-rule acl set generated from this seed.
const RULESET_SEED: u64 = 20_080_414;
const TRACE_LEN: usize = 65_536;
const RATE_MPPS: f64 = 0.3;
const INTERVAL: Duration = Duration::from_millis(30);

fn config() -> BuildConfig {
    BuildConfig::paper_defaults(CutAlgorithm::HyperCuts)
}

pub fn ruleset() -> RuleSet {
    ClassBenchGenerator::new(SeedStyle::Acl, RULESET_SEED)
        .generate(2_191)
        .truncated(RULES, format!("acl1_{RULES}"))
}

/// Seeded single-rule replacements, each undone by the step after it: rule
/// `k` takes the ranges of a fresh ClassBench rule, then gets its own back,
/// keeping the ids dense and the installed set within one rule of
/// `acl1_2000` (250-300 of 1024 words).  Replacements left in place add up
/// until the program outgrows the accelerator: 1345 words at the 458th.
fn script(rs: &RuleSet, exp: &mut Expected, seed: u64, bursts: usize) -> Result<Vec<Rule>, String> {
    let mut rng = Rng::new(derive(seed, 3));
    let fresh =
        ClassBenchGenerator::new(SeedStyle::Acl, derive(seed, 4)).generate(bursts.div_ceil(2));
    let mut k = 0;
    (0..bursts)
        .map(|b| {
            let rule = if b % 2 == 0 {
                k = rng.below(rs.len());
                Rule::new(k as u32, fresh.rules()[b / 2].ranges)
            } else {
                rs.rules()[k]
            };
            exp.push_burst(&[RuleUpdate::Delete(rule.id), RuleUpdate::Insert(rule)])?;
            Ok(rule)
        })
        .collect()
}

/// Program build, classifier and the 2-worker engine.
fn setup(rs: &RuleSet) -> Result<(AcceleratorClassifier, Engine, f64), String> {
    let t = Instant::now();
    let program =
        HardwareProgram::build(rs, &config()).map_err(|e| format!("program build: {e}"))?;
    let classifier = AcceleratorClassifier::new(program);
    let engine = EngineConfig::new()
        .workers(2)
        .engine(Arc::new(classifier.clone()));
    Ok((classifier, engine, t.elapsed().as_secs_f64()))
}

type Current = (Arc<AcceleratorClassifier>, Arc<Engine>);

fn one_worker(classifier: &Arc<AcceleratorClassifier>) -> Arc<Engine> {
    Arc::new(
        EngineConfig::new()
            .workers(1)
            .engine(Arc::clone(classifier) as SharedClassifier),
    )
}

/// The program the serving thread uses and its 1-worker engine, replaced
/// whole on every rebuild.
struct Published {
    version: AtomicU64,
    current: Mutex<Current>,
    /// Highest version the serving thread has picked up, and when.
    picked: AtomicU64,
    picked_at_ns: AtomicU64,
    origin: Instant,
}

struct AccelServer<'a> {
    shared: &'a Published,
    current: Current,
    version: u64,
    headers: &'a [PacketHeader],
    cursor: Cursor<'a>,
    pkts: Vec<u32>,
    tally: Tally,
}

impl Server for AccelServer<'_> {
    fn before(&mut self) {
        let v = self.shared.version.load(Ordering::Acquire);
        if v != self.version {
            self.current = self
                .shared
                .current
                .lock()
                .expect("engine slot poisoned")
                .clone();
            self.version = v;
            let at = self.shared.origin.elapsed().as_nanos() as u64;
            self.shared.picked_at_ns.store(at, Ordering::Release);
            self.shared.picked.store(v, Ordering::Release);
        }
    }

    fn serve(&mut self, arrivals: &[u64], out: &mut Vec<MatchResult>) {
        let n = self.headers.len() as u64;
        let batch = arrivals
            .iter()
            .map(|&k| self.headers[(k % n) as usize])
            .collect();
        out.extend(
            self.current
                .1
                .classify_trace(&Trace::from_headers("open", batch))
                .results,
        );
    }

    fn check(&mut self, arrivals: &[u64], out: &[MatchResult]) {
        let n = self.headers.len() as u64;
        self.pkts.clear();
        self.pkts.extend(arrivals.iter().map(|&k| (k % n) as u32));
        let v = self.version as usize;
        check_window(&mut self.cursor, v, v, &self.pkts, out, &mut self.tally);
    }
}

struct AccelWriter<'a> {
    shared: &'a Published,
    script: &'a [Rule],
    /// The ruleset as the last rebuild installed it.
    rules: RuleSet,
}

impl Writer for AccelWriter<'_> {
    /// Replaces one rule, rebuilds the program, publishes a 1-worker
    /// engine over it and waits until the serving thread serves it.
    fn step(&mut self, i: usize) -> Step {
        let mut rules = self.rules.rules().to_vec();
        let rule = self.script[i];
        rules[rule.id as usize] = rule;
        let rebuilt = RuleSet::new(self.rules.name(), *self.rules.spec(), rules)
            .map_err(|e| format!("{e:?}"))
            .and_then(|rs| {
                let program = HardwareProgram::build(&rs, &config()).map_err(|e| e.to_string())?;
                Ok((rs, program))
            });
        let Ok((rs, program)) = rebuilt else {
            return Step {
                visible: None,
                failed: true,
            };
        };
        self.rules = rs;
        let classifier = Arc::new(AcceleratorClassifier::new(program));
        let v = i as u64 + 1;
        *self.shared.current.lock().expect("engine slot poisoned") =
            (Arc::clone(&classifier), one_worker(&classifier));
        self.shared.version.store(v, Ordering::Release);
        while self.shared.picked.load(Ordering::Acquire) < v {
            std::hint::spin_loop();
        }
        let at = self.shared.picked_at_ns.load(Ordering::Acquire);
        Step {
            visible: Some(self.shared.origin + Duration::from_nanos(at)),
            failed: false,
        }
    }
}

/// Accelerator cycles and ASIC energy per packet over the workload trace,
/// with the model's two properties checked: every packet takes between 1
/// and the program's worst-case cycle count, and energy per cycle is the
/// device's.
fn model(
    program: &HardwareProgram,
    trace: &Trace,
    expected: &[u32],
    tally: &mut Tally,
) -> (f64, f64) {
    phase("accelerator-model", 1);
    let report = Accelerator::new(program).classify_trace(trace);
    layers::check_all(&report.results, expected, tally);
    let worst = program.worst_case_cycles();
    for (i, p) in report.per_packet.iter().enumerate() {
        let c = p.visible_cycles();
        tally.record((1..=worst).contains(&c), || {
            format!("packet {i} took {c} cycles, worst case {worst}")
        });
    }
    let asic = AcceleratorEnergyModel::asic();
    let per_cycle = asic.trace_energy_j(&report) / report.cycles as f64;
    let device = asic.device().normalized_energy_j(1);
    tally.record((per_cycle - device).abs() <= 1e-9 * device, || {
        format!("energy per cycle {per_cycle:e} J is not the device's {device:e} J")
    });
    let cycles = report.cycles as f64 / report.packets() as f64;
    (cycles, asic.energy_per_packet_j(&report) * 1e9)
}

fn per_layer(
    report: &mut Report,
    args: &Args,
    rs: &RuleSet,
    trace: &Trace,
    exp: &Expected,
    served: &AcceleratorClassifier,
    tally: &mut Tally,
) {
    // The software comparator of the paper: HyperCuts over the same rules,
    // flattened, which the software layers measure.
    let t = Instant::now();
    let tree = HyperCutsClassifier::build(rs, &HyperCutsConfig::paper_defaults());
    report.metric("algos.tree_build_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    let flat = tree.flatten();
    report.metric("algos.flatten_s", t.elapsed().as_secs_f64(), "s");
    drop(tree);
    let headers: Vec<PacketHeader> = trace.headers().copied().collect();
    let unit = Unit {
        classifier: &flat,
        headers: &headers,
        expected: exp.base(),
    };
    let sim: Sim = layers::sa1100_sample(std::slice::from_ref(&unit), args.seed, tally);
    layers::software_layers(report, &[unit], &sim, args.seed, 2, tally);
    layers::engine_layers(
        report,
        Arc::new(served.clone()) as SharedClassifier,
        trace,
        exp.base(),
        tally,
    );
    let spec = || TenantSpec::new(rs.name());
    layers::tenant_layers(
        report,
        vec![(spec(), served.clone())],
        std::slice::from_ref(trace),
        &[exp.base()],
        None,
        || (spec(), served.clone()),
        tally,
    );
    layers::core_layers(report, rs, trace, exp.base(), tally);

    let probe = ProbeState::new();
    let engine = EngineConfig::new()
        .workers(1)
        .engine(Arc::new(Probe::new(served.clone(), &probe)));
    let mut front = TraceFront::new(&engine, &headers, exp.base());
    layers::traced_phase(
        report,
        &mut front,
        &probe,
        &format!("paper-accel-{}", args.seed),
        tally,
    );
}

pub fn run(args: &Args) -> Result<Report, String> {
    let slice_s = args.seconds * OPEN_SHARE / SLICES as f64;
    let plan = Plan {
        rate_mpps: RATE_MPPS,
        max_batch: 64,
        interval: INTERVAL,
        steps: ((slice_s / INTERVAL.as_secs_f64()) as usize).max(1),
        lead: Duration::from_millis(50),
        window: INTERVAL * 4,
    };

    phase("inputs", 2);
    let rs = ruleset();
    let trace = TraceGenerator::new(&rs, derive(args.seed, 1)).generate(TRACE_LEN);
    let headers: Vec<PacketHeader> = trace.headers().copied().collect();
    let mut rng = Rng::new(derive(args.seed, 2));
    let sample: Vec<usize> = (0..4_096).map(|_| rng.below(headers.len())).collect();
    let mut exp = Expected::new(&rs, &headers, &sample)?;
    let script = script(&rs, &mut exp, args.seed, SLICES * plan.steps)?;
    let mut report = Report::default();
    let mut tally = Tally::default();

    phase("setup", 1);
    let mut setup_s = Vec::new();
    let mut built = None;
    let started = Instant::now();
    while setup_s.is_empty() || started.elapsed() < crate::SETUP_SPAN {
        drop(built.take());
        let (classifier, engine, s) = setup(&rs)?;
        setup_s.push(s);
        built = Some((classifier, engine));
    }
    let (classifier, engine) = built.expect("at least one setup");
    layers::self_test(&exp)?;
    drop(engine);
    let sim = model(classifier.program(), &trace, exp.base(), &mut tally);
    if args.trace {
        per_layer(
            &mut report,
            args,
            &rs,
            &trace,
            &exp,
            &classifier,
            &mut tally,
        );
    }

    let classifier = Arc::new(classifier);
    let shared = Published {
        version: AtomicU64::new(0),
        current: Mutex::new((Arc::clone(&classifier), one_worker(&classifier))),
        picked: AtomicU64::new(0),
        picked_at_ns: AtomicU64::new(0),
        origin: Instant::now(),
    };
    let mut server = AccelServer {
        current: shared.current.lock().expect("engine slot poisoned").clone(),
        shared: &shared,
        version: 0,
        headers: &headers,
        cursor: Cursor::new(&exp),
        pkts: Vec::new(),
        tally: Tally::default(),
    };
    let mut writer = AccelWriter {
        shared: &shared,
        script: &script,
        rules: rs.clone(),
    };
    let all: Vec<u32> = (0..headers.len() as u32).collect();
    let (rates, open) = openloop::alternate(
        args.seconds,
        args.seed,
        &plan,
        &mut server,
        &mut writer,
        |server| {
            // The program the serving thread last picked up, on two workers.
            let engine = EngineConfig::new()
                .workers(2)
                .engine(Arc::clone(&server.current.0) as SharedClassifier);
            let run = engine.classify_trace(&trace);
            let v = server.version as usize;
            check_window(
                &mut server.cursor,
                v,
                v,
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
        layers::end_to_end(&mut report, &setup_s, &rates, &open, sim)?;
    }
    Ok(report)
}
