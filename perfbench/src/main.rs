//! End-to-end and per-layer benchmark of the packet classifier.
//!
//! ```text
//! perfbench --workload <fresh-64k|tenants-churn|paper-accel> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics.  The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.  Progress, host facts and diagnostics go to standard error.
//! See `README.md` next to this crate for the workloads and metrics.

mod accel;
mod fresh;
mod layers;
mod openloop;
mod oracle;
mod rng;
mod spans;
mod stats;
mod tenants;

use std::fmt::Write as _;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 1 and 600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one run prints: the decision check, the operation counts and the
/// metrics in order.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

/// Host facts every run prints, and the processor count phases are
/// checked against.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How long the workloads whose set-up takes well under a second repeat
/// it: the host's speed changes within a second, so `setup_s`, the median
/// set-up, samples two seconds of it rather than one moment.
pub const SETUP_SPAN: std::time::Duration = std::time::Duration::from_secs(2);

/// Announces a phase and flags it when it runs more busy threads than the
/// host has processors.
pub fn phase(name: &str, busy_threads: usize) {
    memory_note("the previous phase");
    let n = nproc();
    let flag = if busy_threads > n {
        "  OVERSUBSCRIBED"
    } else {
        ""
    };
    eprintln!("phase {name}: {busy_threads} busy thread(s), nproc {n}{flag}");
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Prints the resident and peak resident set after a phase.
pub fn memory_note(after: &str) {
    eprintln!(
        "memory after {after}: resident {:.1} MB, peak {:.1} MB",
        status_mb("VmRSS:"),
        peak_rss_mb()
    );
}

/// Busy and stolen processor time of the whole host so far (ticks), from
/// the first line of `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    let total: u64 = v.iter().take(8).sum();
    (total, v.get(7).copied().unwrap_or(0))
}

fn main() {
    let ticks = cpu_ticks();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "host: nproc {} | {} | workload {} seed {} seconds {} trace {}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let run = match args.workload.as_str() {
        "fresh-64k" => fresh::run(&args),
        "tenants-churn" => tenants::run(&args),
        "paper-accel" => accel::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let want: &[&str] = if args.trace {
        &layers::PER_LAYER
    } else {
        &layers::END_TO_END
    };
    let mut got: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    let mut expected = want.to_vec();
    got.sort_unstable();
    expected.sort_unstable();
    if got != expected {
        eprintln!("perfbench: the run printed metrics {got:?}, not {expected:?}");
        std::process::exit(1);
    }
    if let Some((name, _, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not a finite number");
        std::process::exit(1);
    }
    let (total, steal) = cpu_ticks();
    eprintln!(
        "host: {:.1}% of processor time was stolen by the hypervisor during the run",
        100.0 * (steal - ticks.1) as f64 / (total - ticks.0).max(1) as f64
    );
    println!("{}", report.to_json());
}
