//! End-to-end benchmark of the ipsim workspace.
//!
//! ```text
//! perfbench --workload <paper-sweep|fig01-live|serve-mixed> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a table of every metric (name, value, unit, sample count) and,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs one traced repetition and
//! reports the per-layer metrics. Exits 1 when any output fails its
//! check, 2 on a usage error. See `README.md` next to this crate.

mod check;
mod report;
mod serve;
mod spans;
mod sweep;
mod traced;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use report::Report;
use spans::Recorder;

const USAGE: &str = "usage: perfbench --workload <paper-sweep|fig01-live|serve-mixed> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// The seed the recorded digests and the recorded numbers belong to. It
/// maps to the workload seeds the figure binaries use.
pub const DEFAULT_SEED: u64 = 1;

/// Directory, relative to the working directory, for the run's scratch
/// state; removed before exit.
const SCRATCH_DIR: &str = ".bench_tmp";

/// Directory, relative to the working directory, for traced-run span files.
const TRACE_OUT_DIR: &str = ".bench_out";

/// End-to-end metrics: every `--trace 0` run reports all of them.
const END_TO_END: [(&str, &str); 7] = [
    ("sim_mips", "Minstr/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "fraction"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
];

/// Per-layer metrics: every `--trace 1` run reports all of them; those
/// that do not apply to a workload read 0 with no samples.
const PER_LAYER: [(&str, &str); 33] = [
    ("trace.synth_s", "s"),
    ("trace.gen_ns_per_op", "ns"),
    ("stream.capture_s", "s"),
    ("stream.decode_mops", "Mop/s"),
    ("stream.arena_mib", "MiB"),
    ("cpu.ns_per_instr.no_prefetch", "ns"),
    ("cpu.ns_per_instr.direct", "ns"),
    ("cpu.ns_per_instr.zoo", "ns"),
    ("cpu.build_ms", "ms"),
    ("cache.l1i_mpki", "1/Kinstr"),
    ("cache.l2i_mpki", "1/Kinstr"),
    ("cache.l2d_mpki", "1/Kinstr"),
    ("cache.instrs_per_line_fetch", "instr"),
    ("core.pf_issued_pki", "1/Kinstr"),
    ("core.pf_useful_pki", "1/Kinstr"),
    ("core.pf_accuracy", "fraction"),
    ("core.pf_late_pki", "1/Kinstr"),
    ("prefetch.zoo_ns_per_instr", "ns"),
    ("prefetch.live_attributions", "lines"),
    ("harness.worker_util", "fraction"),
    ("harness.run_s_p50", "s"),
    ("harness.run_s_max", "s"),
    ("harness.cache_lookup_us", "us"),
    ("harness.cache_store_us", "us"),
    ("harness.cache_hit_ratio", "fraction"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.submit_ms_p95", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.dedup_share", "fraction"),
    ("serve.polls_per_job", "count"),
    ("serve.refused", "count"),
    ("bench.trace_overhead_pct", "%"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    Fig01Live,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::Fig01Live,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::Fig01Live => "fig01-live",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The workload seeds (`WorkloadSet::program_seed`, `walker_seed`) a
/// benchmark seed selects; [`DEFAULT_SEED`] gives the figures' own.
pub fn workload_seeds(seed: u64) -> (u64, u64) {
    (
        0x5EED_0000u64.wrapping_add(seed),
        0x5EED_1000u64.wrapping_add(seed),
    )
}

/// Pool workers of the batch workloads: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on `workers` threads, each with its own state
/// from `init`; results come back in input order.
pub fn parallel_with<T: Sync, R: Send, S>(
    items: &[T],
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for worker in 0..workers.clamp(1, items.len().max(1)) {
            let (next, slots, init, f) = (&next, &slots, &init, &f);
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = f(&mut state, worker, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every item ran")
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Writes a traced run's spans and prints total and self time per span.
pub fn write_trace(rec: &Recorder, workload: Workload, report: &mut Report) {
    let dir = Path::new(TRACE_OUT_DIR);
    let path = dir.join(format!("{}.trace.json", workload.name()));
    if let Err(e) = fs::create_dir_all(dir).and_then(|()| rec.write_chrome(&path)) {
        report.fail(format!("writing {}: {e}", path.display()));
    }
    println!("spans of the traced repetition ({}):", path.display());
    println!(
        "  {:<24} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in rec.by_name() {
        println!(
            "  {name:<24} {count:>8} {:>12.3} {:>12.3}",
            total / 1e3,
            own / 1e3
        );
    }
}

fn run(opts: &Options, scratch: &Path) -> Report {
    let mut report = Report::default();
    match opts.workload {
        Workload::PaperSweep | Workload::Fig01Live => {
            sweep::run(opts.workload, opts, scratch, &mut report)
        }
        Workload::ServeMixed => serve::run(opts, scratch, &mut report),
    }
    let wanted: &[(&str, &str)] = if opts.trace {
        &PER_LAYER
    } else {
        let success = 1.0 - report.error_rate();
        let attempted = report.attempted as usize;
        report.metric("success_rate", "fraction", success, attempted);
        if !report.metrics.iter().any(|m| m.name == "peak_rss_mib") {
            match peak_rss_mib() {
                Some(rss) => report.metric("peak_rss_mib", "MiB", rss, 1),
                None => report.fail("cannot read VmHWM from /proc/self/status".to_string()),
            }
        }
        &END_TO_END
    };
    for &(name, unit) in wanted {
        if !report.metrics.iter().any(|m| m.name == name) {
            report.metric(name, unit, 0.0, 0);
        }
    }
    report
        .metrics
        .sort_by_key(|m| wanted.iter().position(|&(n, _)| n == m.name));
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch: PathBuf =
        Path::new(SCRATCH_DIR).join(format!("{}-{}", opts.workload.name(), std::process::id()));
    if let Err(e) = fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let report = run(&opts, &scratch);
    let _ = fs::remove_dir_all(&scratch);
    let _ = fs::remove_dir(SCRATCH_DIR);
    print!("{}", report.table(opts.workload.name()));
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
