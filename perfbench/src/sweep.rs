//! The two batch workloads: `paper-sweep` (Figure 8 plus the zoo
//! bake-off, replayed from a captured trace store) and `fig01-live`
//! (Figure 1, every op generated live by the walker).

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use ipsim_core::PrefetcherKind;
use ipsim_cpu::WorkloadSet;
use ipsim_experiments::bakeoff::bakeoff_specs;
use ipsim_harness::pool::{self, ExecReport};
use ipsim_harness::progress::{Progress, ProgressMode};
use ipsim_harness::{RunCache, RunLengths, RunSource, RunSpec, Summary, TraceStore};

use crate::check;
use crate::report::{self, median, Report};
use crate::spans::Recorder;
use crate::{parallel_with, traced, Options, Workload};

/// Per-core windows of every paper-sweep run.
const PAPER_LENGTHS: RunLengths = RunLengths {
    warm: 150_000,
    measure: 300_000,
};

/// Per-core windows of every fig01-live run.
const FIG01_LENGTHS: RunLengths = RunLengths {
    warm: 200_000,
    measure: 400_000,
};

/// Repetitions (each with its own set-up) a run makes at least, so every
/// reported median has several samples.
const MIN_REPS: usize = 3;

/// The unique run set of a batch workload, in pool order, with the
/// seed-derived workload seeds applied.
pub fn specs(workload: Workload, seed: u64) -> Vec<RunSpec> {
    let mut specs = match workload {
        Workload::PaperSweep => {
            let mut specs = figure_specs("fig08", PAPER_LENGTHS);
            specs.extend(bakeoff_specs(PAPER_LENGTHS));
            specs
        }
        Workload::Fig01Live => figure_specs("fig01", FIG01_LENGTHS),
        Workload::ServeMixed => unreachable!("serve-mixed is not a batch workload"),
    };
    let (program_seed, walker_seed) = crate::workload_seeds(seed);
    let mut seen = HashSet::new();
    specs.retain_mut(|spec| {
        spec.workloads.program_seed = program_seed;
        spec.workloads.walker_seed = walker_seed;
        seen.insert(spec.cache_key())
    });
    specs
}

/// Enumerates a figure's runs by rendering it against a recording
/// executor, so the run set is exactly the one the figure binary uses.
fn figure_specs(name: &str, lengths: RunLengths) -> Vec<RunSpec> {
    let figure = ipsim_experiments::figures::all()
        .into_iter()
        .find(|f| f.name == name)
        .expect("figure is registered");
    let mut specs = Vec::new();
    (figure.render)(lengths, &mut |spec: &RunSpec| {
        specs.push(spec.clone());
        Summary::zeroed()
    });
    specs
}

/// Simulated instructions of one run: warm + measure, all cores.
fn sim_instrs(spec: &RunSpec) -> u64 {
    (spec.lengths.warm + spec.lengths.measure) * u64::from(spec.config.n_cores)
}

/// One cold repetition: fresh directories, set-up, then the timed pool.
pub struct Rep {
    pub setup_s: f64,
    pub synth_s: f64,
    pub capture_s: f64,
    pub timed_s: f64,
    pub exec: ExecReport,
    /// Captain runs of the set-up capture (live walker path), by cache key.
    captains: Vec<(String, Summary)>,
    replayed: u64,
    captured: u64,
}

/// Runs one repetition in `dir`; with a recorder, set-up and the pool
/// are recorded as spans under the given parent.
pub fn rep(
    workload: Workload,
    specs: &[RunSpec],
    dir: &Path,
    workers: usize,
    spans: Option<(&Recorder, u64)>,
) -> Rep {
    let span = |name| spans.map(|(rec, parent)| rec.span(name, Some(parent), 0));
    let trace_dir = dir.join("traces");
    let setup_span = span("setup");
    let t0 = Instant::now();
    // Set-up: synthesise every distinct program set...
    let mut sets: Vec<(WorkloadSet, u32)> = Vec::new();
    for spec in specs {
        let key = (spec.workloads.clone(), spec.config.n_cores);
        if !sets.contains(&key) {
            sets.push(key);
        }
    }
    let synth_span = span("trace.synth");
    let synth = Instant::now();
    for (set, cores) in &sets {
        std::hint::black_box(set.programs(*cores));
    }
    let synth_s = synth.elapsed().as_secs_f64();
    drop(synth_span);
    // ...and for paper-sweep capture every trace key into a fresh store,
    // through one no-prefetch captain run per key.
    let capture = Instant::now();
    let captains = if workload == Workload::PaperSweep {
        let _capture_span = span("stream.capture");
        let store = TraceStore::at(&trace_dir);
        let mut by_trace: Vec<&RunSpec> = Vec::new();
        for spec in specs {
            let plain = spec.zoo.is_none() && spec.prefetcher == PrefetcherKind::None;
            if plain && !by_trace.iter().any(|c| c.trace_key() == spec.trace_key()) {
                by_trace.push(spec);
            }
        }
        parallel_with(
            &by_trace,
            workers,
            || (),
            |_, _, spec| (spec.cache_key(), store.execute(spec).summary),
        )
    } else {
        Vec::new()
    };
    let capture_s = capture.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();
    drop(setup_span);

    // Timed phase: the pool over every unique spec with an empty cache.
    let cache = RunCache::at(dir.join("cache"));
    let traces = match workload {
        Workload::PaperSweep => TraceStore::at(&trace_dir),
        _ => TraceStore::disabled(),
    };
    let progress = Progress::new(ProgressMode::Silent, specs.len());
    let pool_span = span("harness.pool");
    let t1 = Instant::now();
    let exec = pool::execute(specs, workers, &cache, &traces, None, &progress);
    let timed_s = t1.elapsed().as_secs_f64();
    drop(pool_span);
    Rep {
        setup_s,
        synth_s,
        capture_s,
        timed_s,
        exec,
        captains,
        replayed: traces.replayed(),
        captured: traces.captured(),
    }
}

/// Checks one repetition's outputs, counting every run as an operation.
fn check_rep(workload: Workload, specs: &[RunSpec], rep: &Rep, report: &mut Report) -> u64 {
    let mut summaries: BTreeMap<String, Summary> = BTreeMap::new();
    for spec in specs {
        let key = spec.cache_key();
        let error = match rep.exec.results.get(&key) {
            None => Some(format!("{}: no result", spec.label())),
            Some(Err(panic)) => Some(format!("{}: panicked: {panic}", spec.label())),
            Some(Ok(summary)) => {
                summaries.insert(key.clone(), summary.clone());
                check::instruction_count(spec, summary)
            }
        };
        report.op(error);
    }
    let want_source = match workload {
        Workload::PaperSweep => RunSource::Replay,
        _ => RunSource::Live,
    };
    for record in &rep.exec.records {
        if record.source != want_source {
            report.fail(format!(
                "{}: ran from {} instead of {}",
                record.label,
                record.source.as_str(),
                want_source.as_str()
            ));
        }
    }
    if workload == Workload::PaperSweep && (rep.captured != 0 || rep.replayed != specs.len() as u64)
    {
        report.fail(format!(
            "timed phase captured {} and replayed {} of {} runs",
            rep.captured,
            rep.replayed,
            specs.len()
        ));
    }
    // Live (captain) and replayed results of one spec must be identical.
    for (key, live) in &rep.captains {
        report.op(match summaries.get(key) {
            Some(replayed) if replayed == live => None,
            _ => Some(format!(
                "run {key}: captured live result differs from replay"
            )),
        });
    }
    check::digest(&summaries)
}

/// Runs a batch workload: cold repetitions until `--seconds` have passed
/// (at least [`MIN_REPS`]), then the cross-path check. When traced, two
/// plain repetitions and then one instrumented repetition; the second
/// plain one is the reference for the tracing overhead, because the first
/// also pays for warming up the fresh process.
pub fn run(workload: Workload, opts: &Options, scratch: &Path, report: &mut Report) {
    let specs = specs(workload, opts.seed);
    let workers = crate::workers();
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    let rep_count = if opts.trace { 2 } else { usize::MAX };
    while reps.len() < rep_count
        && (reps.len() < MIN_REPS || started.elapsed() < Duration::from_secs(opts.seconds))
    {
        let dir = scratch.join(format!("rep{}", reps.len()));
        let r = rep(workload, &specs, &dir, workers, None);
        let _ = fs::remove_dir_all(&dir);
        digests.push(check_rep(workload, &specs, &r, report));
        reps.push(r);
    }
    check::digests(workload, opts.seed, &digests, report);
    cross_path(workload, &specs, &reps[0], scratch, report);

    if opts.trace {
        let untraced = reps.last().expect("at least one repetition");
        traced::run(workload, &specs, untraced, scratch, workers, report);
        return;
    }
    let total_instrs: u64 = specs.iter().map(sim_instrs).sum();
    let mips: Vec<f64> = reps
        .iter()
        .map(|r| total_instrs as f64 / 1e6 / r.timed_s)
        .collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let jobs: Vec<f64> = reps
        .iter()
        .map(|r| specs.len() as f64 / r.timed_s)
        .collect();
    let run_ms = report::sorted(
        reps.iter()
            .flat_map(|r| r.exec.records.iter().map(|rec| rec.wall_s * 1e3))
            .collect(),
    );
    report.metric("sim_mips", "Minstr/s", median(&mips), mips.len());
    report.metric("setup_s", "s", median(&setups), setups.len());
    report.metric("jobs_per_s", "1/s", median(&jobs), jobs.len());
    report.percentile("job_p50_ms", "ms", &run_ms, 50.0);
    report.percentile("job_p95_ms", "ms", &run_ms, 95.0);
}

/// Executes one spec through the path the workload does not time and
/// compares the result with the timed one: paper-sweep re-runs the spec
/// live with [`RunSpec::execute`]; fig01-live captures and then replays it
/// through a trace store.
fn cross_path(
    workload: Workload,
    specs: &[RunSpec],
    rep: &Rep,
    scratch: &Path,
    report: &mut Report,
) {
    // The first run with a direct prefetch engine, or the first run.
    let spec = specs
        .iter()
        .find(|s| s.zoo.is_none() && s.prefetcher != PrefetcherKind::None)
        .unwrap_or(&specs[0]);
    let other = match workload {
        Workload::PaperSweep => Some(spec.execute()),
        _ => {
            let dir = scratch.join("cross");
            let store = TraceStore::at(&dir);
            store.execute(spec);
            let replayed = store.execute(spec);
            let _ = fs::remove_dir_all(&dir);
            (replayed.source == RunSource::Replay).then_some(replayed.summary)
        }
    };
    report.op(match (rep.exec.results.get(&spec.cache_key()), other) {
        (Some(Ok(timed)), Some(other)) if *timed == other => None,
        _ => Some(format!(
            "{}: live and replayed results differ",
            spec.label()
        )),
    });
}
