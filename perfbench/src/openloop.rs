//! Open-loop load: Poisson arrivals at a fixed offered rate, served by one
//! thread, while a second thread publishes a scripted update stream at
//! fixed due times.
//!
//! Each packet is timed from its due time to the return of the call that
//! decided it, so a stall also counts against the packets queued behind
//! it.  Each update is timed from its due time until it is visible.

use crate::rng::Rng;
use crate::stats::Hist;
use pclass_types::MatchResult;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The serving side of an open-loop phase.
pub trait Server {
    /// Reads what the check needs to know before a call (generations).
    fn before(&mut self);
    /// Serves the arrivals with these positions in the workload's
    /// arrival stream: the timed call.
    fn serve(&mut self, arrivals: &[u64], out: &mut Vec<MatchResult>);
    /// Checks the decisions of the call just made.
    fn check(&mut self, arrivals: &[u64], out: &[MatchResult]);
}

/// What one scripted writer operation did.
pub struct Step {
    /// When the update became visible to serving; `None` for an operation
    /// that is not an update burst (an eviction cycle).
    pub visible: Option<Instant>,
    /// Whether the operation failed.
    pub failed: bool,
}

/// The writing side of an open-loop phase.
pub trait Writer: Send {
    fn step(&mut self, i: usize) -> Step;
}

pub struct Plan {
    /// Offered packet rate in millions per second.
    pub rate_mpps: f64,
    /// Most arrivals handed to one call.
    pub max_batch: usize,
    /// Spacing of the writer's due times.
    pub interval: Duration,
    /// Writer operations per slice (whole rounds of the script).
    pub steps: usize,
    /// Serving time before the first and after the last due time.
    pub lead: Duration,
    /// Length of the windows packet-latency percentiles are taken over: a
    /// whole number of writer intervals, so every window holds the same
    /// number of publishes.
    pub window: Duration,
}

/// A run alternates closed-loop passes and open-loop slices this many
/// times, so that each phase samples the host over the whole run rather
/// than over one stretch of it.
pub const SLICES: usize = 8;

/// Share of `--seconds` the open-loop slices take; the closed-loop passes
/// take the rest.
pub const OPEN_SHARE: f64 = 0.85;

#[derive(Default)]
pub struct Outcome {
    /// The p50 and p99 of due time to decision over the packets due in
    /// each window (ns).
    pub windows: Vec<[f64; 2]>,
    /// How late the generator issued each call beyond the later of its
    /// newest arrival and the end of the previous call (ns).
    pub late: Hist,
    /// Due time to visibility, per update burst (ns).
    pub update_ns: Vec<f64>,
    pub packets: u64,
    pub busy_ns: u64,
    pub wall_ns: u64,
    pub ops: u64,
    pub failed: u64,
}

/// Sleeps until 2 ms before `due`, then yields until it: the writer keeps
/// its processor free between bursts, and a late wake-up from the sleep
/// (which on a virtual machine can take hundreds of microseconds) is not
/// charged to the update it precedes.
fn wait_until(due: Instant) {
    let early = Duration::from_millis(2);
    let now = Instant::now();
    if due > now + early {
        std::thread::sleep(due - now - early);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

impl Outcome {
    /// Packet latency p50 and p99 (ns): the median over the run's windows
    /// of each window's percentile.  A stall of the program that recurs
    /// with its publishes is in every window and moves the figures.
    pub fn latency_percentiles(&self) -> [f64; 2] {
        [0, 1].map(|i| {
            let v: Vec<f64> = self.windows.iter().map(|w| w[i]).collect();
            crate::stats::median(&v)
        })
    }

    fn close_window(&mut self, window: &Hist) {
        if window.count() > 0 {
            self.windows
                .push([window.percentile(0.5), window.percentile(0.99)]);
        }
    }

    fn merge(&mut self, slice: Outcome) {
        self.windows.extend(slice.windows);
        self.late.merge(&slice.late);
        self.update_ns.extend(slice.update_ns);
        self.packets += slice.packets;
        self.busy_ns += slice.busy_ns;
        self.wall_ns += slice.wall_ns;
        self.ops += slice.ops;
        self.failed += slice.failed;
    }
}

/// The measured part of a run: closed-loop passes alternating with
/// open-loop slices.  `pass` runs one checked closed-loop pass and returns
/// its rate (Mpps); the first pass after each open-loop slice warms the
/// caches and is not counted.  Returns the counted passes' rates, each
/// with whether the host's `steal` counter grew during it, and the
/// open-loop outcome.
pub fn alternate<S: Server, W: Writer>(
    seconds: f64,
    seed: u64,
    plan: &Plan,
    server: &mut S,
    writer: &mut W,
    mut pass: impl FnMut(&mut S) -> f64,
) -> (Vec<(f64, bool)>, Outcome) {
    crate::phase("closed-loop passes and open-loop slices", 2);
    let closed_s = seconds * (1.0 - OPEN_SHARE) / SLICES as f64;
    let mut rates = Vec::new();
    let mut open = Outcome::default();
    // One writer thread serves every slice, as one writer would serve a
    // long-running system: it waits for each slice's start between slices.
    let (to_writer, slices) = mpsc::channel::<(Instant, usize)>();
    let (to_server, written) = mpsc::channel::<(Vec<f64>, u64)>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (first_due, first_step) in slices {
                let mut update_ns = Vec::with_capacity(plan.steps);
                let mut failed = 0u64;
                for i in 0..plan.steps {
                    let due = first_due + plan.interval * i as u32;
                    wait_until(due);
                    let step = writer.step(first_step + i);
                    if let Some(at) = step.visible {
                        update_ns.push(at.duration_since(due).as_nanos() as f64);
                    }
                    failed += u64::from(step.failed);
                }
                if to_server.send((update_ns, failed)).is_err() {
                    return;
                }
            }
        });
        for slice in 0..SLICES {
            pass(server);
            let start = Instant::now();
            let mut n = 0;
            while n < 3 || start.elapsed().as_secs_f64() < closed_s {
                let steal = crate::cpu_ticks().1;
                let rate = pass(server);
                rates.push((rate, crate::cpu_ticks().1 > steal));
                n += 1;
            }
            let seed = crate::rng::derive(seed, slice as u64);
            open.merge(run(
                plan,
                seed,
                server,
                &to_writer,
                &written,
                slice * plan.steps,
            ));
        }
        drop(to_writer);
    });
    crate::memory_note("the measured phases");
    (rates, open)
}

/// One open-loop slice: `plan.steps` writer operations from `first_step`
/// on, and Poisson arrivals until the last one is due and `plan.lead`
/// has passed.
fn run<S: Server>(
    plan: &Plan,
    seed: u64,
    server: &mut S,
    to_writer: &mpsc::Sender<(Instant, usize)>,
    written: &mpsc::Receiver<(Vec<f64>, u64)>,
    first_step: usize,
) -> Outcome {
    let mut out = Outcome::default();
    let mut window = Hist::new();
    let mut window_end = plan.window.as_nanos() as f64;
    let start = Instant::now();
    let first_due = start + plan.lead;
    let end = first_due + plan.interval * plan.steps as u32 + plan.lead;
    let mean_gap_ns = 1e3 / plan.rate_mpps;
    to_writer
        .send((first_due, first_step))
        .expect("writer thread is waiting");
    let mut writer_done = None;
    {
        let mut rng = Rng::new(seed);
        let mut next_due = rng.exp(mean_gap_ns);
        let mut k = 0u64;
        let mut arrivals: Vec<u64> = Vec::with_capacity(plan.max_batch);
        let mut dues: Vec<f64> = Vec::with_capacity(plan.max_batch);
        let mut results: Vec<MatchResult> = Vec::with_capacity(plan.max_batch);
        let mut prev_end = 0.0f64;
        let end_ns = end.duration_since(start).as_nanos() as f64;
        loop {
            let now = start.elapsed().as_nanos() as f64;
            if writer_done.is_none() {
                writer_done = match written.try_recv() {
                    Ok(done) => Some(done),
                    Err(mpsc::TryRecvError::Empty) => None,
                    Err(mpsc::TryRecvError::Disconnected) => panic!("the writer thread stopped"),
                };
            }
            if now >= end_ns && writer_done.is_some() {
                break;
            }
            if next_due > now {
                std::hint::spin_loop();
                continue;
            }
            arrivals.clear();
            dues.clear();
            while next_due <= now && arrivals.len() < plan.max_batch {
                arrivals.push(k);
                dues.push(next_due);
                k += 1;
                next_due += rng.exp(mean_gap_ns);
            }
            results.clear();
            server.before();
            let call_start = start.elapsed().as_nanos() as f64;
            server.serve(&arrivals, &mut results);
            let call_end = start.elapsed().as_nanos() as f64;
            for &due in &dues {
                if due >= window_end {
                    out.close_window(&window);
                    window.clear();
                    while due >= window_end {
                        window_end += plan.window.as_nanos() as f64;
                    }
                }
                window.record((call_end - due) as u64);
            }
            let newest = dues.last().copied().unwrap_or(call_start);
            out.late
                .record((call_start - newest.max(prev_end)).max(0.0) as u64);
            out.busy_ns += (call_end - call_start) as u64;
            out.packets += arrivals.len() as u64;
            prev_end = call_end;
            server.check(&arrivals, &results);
        }
        out.wall_ns = start.elapsed().as_nanos() as u64;
        out.close_window(&window);
        let (update_ns, failed) = writer_done.expect("the loop ends after the writer");
        out.update_ns = update_ns;
        out.failed = failed;
        out.ops = plan.steps as u64;
    }
    out
}
