//! The traced repetition of the batch workloads.
//!
//! After one ordinary repetition (the untraced reference), a second cold
//! repetition runs with spans around set-up and the pool, and then a
//! decomposition pass re-executes every spec through the public layer
//! APIs one at a time — trace decode, system build, the kernel, and the
//! op source behind a timing wrapper — so each layer's time and counts
//! are measured at its boundary. The pass's summaries must equal the
//! pool's, so it doubles as a correctness check.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ipsim_core::PrefetcherKind;
use ipsim_cpu::{OpSource, SystemMetrics};
use ipsim_harness::{RunSpec, Summary, SystemSlot};
use ipsim_stream::{ArenaSource, TraceReader, TraceSource};
use ipsim_types::instr::TraceOp;

use crate::report::{self, median, Report};
use crate::spans::Recorder;
use crate::sweep::{self, Rep};
use crate::{parallel_with, Workload};

/// Forwards an op source, accumulating the host time spent inside it.
struct Timed<S> {
    inner: S,
    ns: u64,
    ops: u64,
}

impl<S> Timed<S> {
    fn new(inner: S) -> Timed<S> {
        Timed {
            inner,
            ns: 0,
            ops: 0,
        }
    }
}

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<S: TraceSource> TraceSource for Timed<S> {
    fn next_op(&mut self) -> TraceOp {
        let t = Instant::now();
        let op = self.inner.next_op();
        self.ns += nanos_since(t);
        self.ops += 1;
        op
    }

    fn next_block(&mut self, out: &mut [TraceOp]) {
        let t = Instant::now();
        self.inner.next_block(out);
        self.ns += nanos_since(t);
        self.ops += out.len() as u64;
    }

    fn next_slice(&mut self, n: usize) -> Option<&[TraceOp]> {
        let Timed { inner, ns, ops } = self;
        let t = Instant::now();
        let slice = inner.next_slice(n);
        *ns += nanos_since(t);
        if slice.is_some() {
            *ops += n as u64;
        }
        slice
    }
}

/// One core's decoded stream, shared by every run that replays it.
#[derive(Clone)]
struct CoreOps(Arc<Vec<TraceOp>>);

impl AsRef<[TraceOp]> for CoreOps {
    fn as_ref(&self) -> &[TraceOp] {
        &self.0
    }
}

/// Every stream of a trace store, decoded, keyed by the stream
/// description embedded in each file ([`RunSpec::trace_meta`]) and core.
#[derive(Default)]
struct Arena {
    streams: HashMap<(String, u32), CoreOps>,
    decode_s: f64,
    ops: u64,
}

fn load_arena(dir: &Path, rec: &Recorder, parent: u64) -> Result<Arena, String> {
    let mut arena = Arena::default();
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|x| x != "itrace") {
            continue;
        }
        let mut span = rec.span("stream.decode", Some(parent), 0);
        let t = Instant::now();
        let file = fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut reader = TraceReader::open(std::io::BufReader::new(file))
            .map_err(|e| format!("{}: {e:?}", path.display()))?;
        let mut ops = Vec::new();
        let stats = reader
            .decode_all_into(&mut ops)
            .map_err(|e| format!("{}: {e:?}", path.display()))?;
        arena.decode_s += t.elapsed().as_secs_f64();
        arena.ops += stats.ops;
        span.arg("ops", stats.ops as f64);
        arena.streams.insert(
            (reader.meta().to_string(), reader.core_id()),
            CoreOps(Arc::new(ops)),
        );
    }
    Ok(arena)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    NoPrefetch,
    Direct,
    Zoo,
}

impl Class {
    fn of(spec: &RunSpec) -> Class {
        if spec.zoo.is_some() {
            Class::Zoo
        } else if spec.prefetcher == PrefetcherKind::None {
            Class::NoPrefetch
        } else {
            Class::Direct
        }
    }
}

/// What the decomposition measured for one run.
struct Detail {
    class: Class,
    cmp: bool,
    /// Simulated instructions, warm + measure, all cores.
    instrs: u64,
    build_s: f64,
    /// Kernel self time: `run_workload_from` minus time inside op sources.
    kernel_s: f64,
    source_ops: u64,
    source_s: f64,
    metrics: SystemMetrics,
    live_attributions: usize,
}

/// Executes one spec through the layer APIs, feeding cores from the
/// arena (replay) or from timed live walkers.
fn decompose_one(
    spec: &RunSpec,
    arena: Option<&Arena>,
    slot: &mut SystemSlot,
    rec: &Recorder,
    parent: u64,
    thread: u64,
) -> Result<Detail, String> {
    let n = spec.config.n_cores;
    let run = rec.span("run", Some(parent), thread);
    let (mut replay, programs) = match arena {
        Some(arena) => {
            let meta = spec.trace_meta();
            let sources = (0..n)
                .map(|c| {
                    arena
                        .streams
                        .get(&(meta.clone(), c))
                        .map(|ops| Timed::new(ArenaSource::new(ops.clone())))
                        .ok_or_else(|| format!("{}: no stored stream for core {c}", spec.label()))
                })
                .collect::<Result<Vec<_>, String>>()?;
            (sources, Vec::new())
        }
        None => {
            let _synth = rec.span("trace.synth", Some(run.id()), thread);
            (Vec::new(), spec.workloads.programs(n))
        }
    };
    let mut walkers: Vec<_> = if arena.is_none() {
        (0..n)
            .map(|c| Timed::new(spec.workloads.walker(&programs, c)))
            .collect()
    } else {
        Vec::new()
    };
    let t = Instant::now();
    let mut system = {
        let _build = rec.span("cpu.build", Some(run.id()), thread);
        slot.take(spec)
    };
    let build_s = t.elapsed().as_secs_f64();
    let mut kernel = rec.span("cpu.run", Some(run.id()), thread);
    let t = Instant::now();
    let mut sources: Vec<&mut dyn OpSource> = replay
        .iter_mut()
        .map(|s| s as &mut dyn OpSource)
        .chain(walkers.iter_mut().map(|s| s as &mut dyn OpSource))
        .collect();
    let metrics = system.run_workload_from(&mut sources, spec.lengths.warm, spec.lengths.measure);
    let run_s = t.elapsed().as_secs_f64();
    drop(sources);
    let (source_ns, source_ops) = replay
        .iter()
        .map(|s| (s.ns, s.ops))
        .chain(walkers.iter().map(|s| (s.ns, s.ops)))
        .fold((0, 0), |(a, b), (ns, ops)| (a + ns, b + ops));
    kernel.arg("source_ns", source_ns as f64);
    kernel.arg("source_ops", source_ops as f64);
    drop(kernel);
    let live_attributions = system.zoo_live_attributions();
    slot.put(system);
    let source_s = source_ns as f64 * 1e-9;
    Ok(Detail {
        class: Class::of(spec),
        cmp: n > 1,
        instrs: (spec.lengths.warm + spec.lengths.measure) * u64::from(n),
        build_s,
        kernel_s: run_s - source_s,
        source_ops,
        source_s,
        metrics,
        live_attributions,
    })
}

/// Kernel nanoseconds per simulated instruction over the runs `keep`
/// selects, or `None` when it selects none.
fn ns_per_instr(details: &[Detail], keep: impl Fn(&Detail) -> bool) -> Option<f64> {
    let (s, i) = details
        .iter()
        .filter(|d| keep(d))
        .fold((0.0, 0u64), |(s, i), d| (s + d.kernel_s, i + d.instrs));
    (i > 0).then(|| s * 1e9 / i as f64)
}

/// Runs the traced repetition and reports every per-layer metric.
pub fn run(
    workload: Workload,
    specs: &[RunSpec],
    untraced: &Rep,
    scratch: &Path,
    workers: usize,
    report: &mut Report,
) {
    let rec = Recorder::new();
    let dir = scratch.join("traced");
    let root = rec.span("traced", None, 0);
    let traced = sweep::rep(workload, specs, &dir, workers, Some((&rec, root.id())));
    let pass_started = Instant::now();
    let pass = rec.span("decompose", Some(root.id()), 0);
    let arena = match workload {
        Workload::PaperSweep => match load_arena(&dir.join("traces"), &rec, pass.id()) {
            Ok(arena) => Some(arena),
            Err(e) => {
                report.fail(e);
                None
            }
        },
        _ => None,
    };
    let outcomes = parallel_with(specs, workers, SystemSlot::new, |slot, worker, spec| {
        let detail = decompose_one(
            spec,
            arena.as_ref(),
            slot,
            &rec,
            pass.id(),
            worker as u64 + 1,
        );
        (spec.cache_key(), detail)
    });
    drop(pass);
    let pass_s = pass_started.elapsed().as_secs_f64();
    drop(root);
    let _ = fs::remove_dir_all(&dir);

    let mut details = Vec::new();
    for (key, outcome) in outcomes {
        let pooled = traced.exec.results.get(&key);
        report.op(match (outcome, pooled) {
            (Ok(d), _) if d.source_ops != d.instrs => Some(format!(
                "run {key}: cores consumed {} ops, expected (warm + measure) x cores = {}",
                d.source_ops, d.instrs
            )),
            (Ok(d), Some(Ok(s))) if Summary::from_metrics(&d.metrics) == *s => {
                details.push(d);
                None
            }
            (Err(e), _) => Some(e),
            _ => Some(format!(
                "run {key}: decomposed result differs from the pool's"
            )),
        });
    }

    let replay = workload == Workload::PaperSweep;
    let applies = |ok: bool, samples: usize| if ok { samples } else { 0 };
    let n = details.len();

    // trace
    report.metric("trace.synth_s", "s", traced.synth_s, 1);
    let (gen_s, gen_ops) = details
        .iter()
        .fold((0.0, 0u64), |(s, o), d| (s + d.source_s, o + d.source_ops));
    report.metric(
        "trace.gen_ns_per_op",
        "ns",
        if replay {
            0.0
        } else {
            gen_s * 1e9 / gen_ops.max(1) as f64
        },
        applies(!replay, n),
    );
    // stream
    report.metric(
        "stream.capture_s",
        "s",
        traced.capture_s,
        applies(replay, 1),
    );
    let (decode_mops, arena_mib, decoded) = arena.as_ref().map_or((0.0, 0.0, 0), |a| {
        (
            a.ops as f64 / 1e6 / a.decode_s.max(1e-9),
            (a.ops as usize * std::mem::size_of::<TraceOp>()) as f64 / (1 << 20) as f64,
            a.streams.len(),
        )
    });
    report.metric("stream.decode_mops", "Mop/s", decode_mops, decoded);
    report.metric("stream.arena_mib", "MiB", arena_mib, decoded);
    // cpu
    for (name, class) in [
        ("cpu.ns_per_instr.no_prefetch", Class::NoPrefetch),
        ("cpu.ns_per_instr.direct", Class::Direct),
        ("cpu.ns_per_instr.zoo", Class::Zoo),
    ] {
        let count = details.iter().filter(|d| d.class == class).count();
        let value = ns_per_instr(&details, |d| d.class == class).unwrap_or(0.0);
        report.metric(name, "ns", value, count);
    }
    let builds: Vec<f64> = details.iter().map(|d| d.build_s * 1e3).collect();
    report.metric("cpu.build_ms", "ms", median(&builds), n);
    // cache
    let measured: u64 = details.iter().map(|d| d.metrics.instructions()).sum();
    let per_ki = |count: f64, instrs: u64| count * 1000.0 / instrs.max(1) as f64;
    let events = |f: &dyn Fn(&SystemMetrics) -> f64| -> f64 {
        details
            .iter()
            .map(|d| f(&d.metrics) * d.metrics.instructions() as f64)
            .sum()
    };
    report.metric(
        "cache.l1i_mpki",
        "1/Kinstr",
        per_ki(events(&|m| m.l1i_miss_per_instr()), measured),
        n,
    );
    report.metric(
        "cache.l2i_mpki",
        "1/Kinstr",
        per_ki(events(&|m| m.l2_instr_miss_per_instr()), measured),
        n,
    );
    report.metric(
        "cache.l2d_mpki",
        "1/Kinstr",
        per_ki(events(&|m| m.l2_data_miss_per_instr()), measured),
        n,
    );
    let line_fetches: u64 = details
        .iter()
        .flat_map(|d| d.metrics.cores.iter().map(|c| c.line_fetches))
        .sum();
    report.metric(
        "cache.instrs_per_line_fetch",
        "instr",
        measured as f64 / line_fetches.max(1) as f64,
        n,
    );
    // core: over the runs that prefetch
    let prefetching: Vec<&Detail> = details
        .iter()
        .filter(|d| d.class != Class::NoPrefetch)
        .collect();
    let pf_instrs: u64 = prefetching.iter().map(|d| d.metrics.instructions()).sum();
    let (issued, useful, late) = prefetching.iter().fold((0, 0, 0), |(i, u, l), d| {
        let p = d.metrics.prefetch();
        (i + p.issued, u + p.useful, l + p.late)
    });
    let pf = prefetching.len();
    report.metric(
        "core.pf_issued_pki",
        "1/Kinstr",
        per_ki(issued as f64, pf_instrs),
        pf,
    );
    report.metric(
        "core.pf_useful_pki",
        "1/Kinstr",
        per_ki(useful as f64, pf_instrs),
        pf,
    );
    report.metric(
        "core.pf_accuracy",
        "fraction",
        useful as f64 / issued.max(1) as f64,
        pf,
    );
    report.metric(
        "core.pf_late_pki",
        "1/Kinstr",
        per_ki(late as f64, pf_instrs),
        pf,
    );
    // prefetch: the zoo's kernel cost over the paired no-prefetch CMP runs
    let zoo: Vec<&Detail> = details.iter().filter(|d| d.class == Class::Zoo).collect();
    let zoo_extra = match (
        ns_per_instr(&details, |d| d.class == Class::Zoo),
        ns_per_instr(&details, |d| d.class == Class::NoPrefetch && d.cmp),
    ) {
        (Some(z), Some(base)) => z - base,
        _ => 0.0,
    };
    report.metric("prefetch.zoo_ns_per_instr", "ns", zoo_extra, zoo.len());
    let attributions: Vec<f64> = zoo.iter().map(|d| d.live_attributions as f64).collect();
    report.metric(
        "prefetch.live_attributions",
        "lines",
        median(&attributions),
        zoo.len(),
    );
    // harness: the traced repetition's pool
    let records = &traced.exec.records;
    let busy: f64 = records.iter().map(|r| r.wall_s).sum();
    report.metric(
        "harness.worker_util",
        "fraction",
        busy / (workers as f64 * traced.timed_s),
        records.len(),
    );
    let walls = report::sorted(records.iter().map(|r| r.wall_s).collect());
    report.metric(
        "harness.run_s_p50",
        "s",
        report::percentile(&walls, 50.0).0,
        walls.len(),
    );
    report.metric(
        "harness.run_s_max",
        "s",
        walls.last().copied().unwrap_or(0.0),
        walls.len(),
    );
    // Like for like: the traced repetition's pool against the untraced
    // one's. The decomposition pass does other work and is shown apart.
    report.metric(
        "bench.trace_overhead_pct",
        "%",
        (traced.timed_s / untraced.timed_s - 1.0) * 100.0,
        1,
    );
    println!(
        "pools: untraced {:.3} s, traced {:.3} s; decomposition pass {pass_s:.3} s",
        untraced.timed_s, traced.timed_s
    );
    crate::write_trace(&rec, workload, report);
}
