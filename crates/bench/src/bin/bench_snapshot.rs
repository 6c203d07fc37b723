//! Machine-readable kernel-throughput snapshot: `BENCH_sim_kernel.json`.
//!
//! The criterion benches in `benches/` are for interactive exploration;
//! their shimmed runner prints text and keeps no history. This tool runs
//! the same workloads with hand-rolled min-of-N timing and writes one JSON
//! file so the simulator's perf trajectory is diffable and CI-checkable:
//!
//! ```text
//! cargo run --release -p ipsim-bench --bin bench_snapshot            # regenerate
//! cargo run --release -p ipsim-bench --bin bench_snapshot -- --check # compare
//! ```
//!
//! `--check` re-measures and fails (exit 1) when any `system/*` or
//! `trace/*` bench is more than `IPSIM_BENCH_TOLERANCE` percent (default
//! 10) slower than the committed snapshot. The snapshot path defaults to
//! `BENCH_sim_kernel.json` and can be redirected with `--out PATH` or the
//! `IPSIM_BENCH_BASELINE` environment variable (`--out` wins) — useful
//! for comparing against an alternate baseline without moving files. The min-of-N estimator is deliberate: minima track
//! the code's floor and are far less sensitive to scheduler noise than
//! means, which is what a regression gate needs. A `"baseline"` block in
//! the JSON (pre-optimisation reference numbers, written by hand once) is
//! preserved verbatim across regenerations.

use std::fmt::Write as _;
use std::time::Instant;

use ipsim_cache::{FillKind, InstallPolicy, SetAssocCache};
use ipsim_core::PrefetcherKind;
use ipsim_cpu::{OpSource, SystemBuilder};
use ipsim_stream::{ArenaSource, TraceSource};
use ipsim_trace::{TraceWalker, Workload};
use ipsim_types::{Addr, CacheConfig, LineAddr, OpKind, Rng64, TraceOp};

/// Default snapshot path, relative to the workspace root (the tool is run
/// via `cargo run`, whose working directory is the workspace root).
/// Overridable with `--out PATH` or the `IPSIM_BENCH_BASELINE` environment
/// variable (`--out` wins); `--check` compares against the same path.
const DEFAULT_PATH: &str = "BENCH_sim_kernel.json";

/// Environment override for the snapshot path.
const BASELINE_ENV: &str = "IPSIM_BENCH_BASELINE";

/// Instructions per sample for the system benches (matches
/// `benches/system_throughput.rs`).
const INSTRS: u64 = 100_000;

/// Operations per sample for the cache micro-benches.
const CACHE_OPS: u64 = 1_000_000;

/// Instructions per sample for the straight-line fast-path bench: ten
/// replays of a 100k-op buffer, so first-touch misses on the 256-line
/// footprint vanish into the noise. The buffer is kept host-L2-resident
/// (like the kernel-only bench's) so the sample times the simulation
/// kernel, not host-memory streaming of the op buffer.
const STRAIGHT_INSTRS: u64 = 1_000_000;

/// Ops in the straight-line buffer; one sample replays it
/// `STRAIGHT_INSTRS / STRAIGHT_BUF` times.
const STRAIGHT_BUF: u64 = 100_000;

/// A straight-line instruction stream walking a 16 KiB (256-line) code
/// footprint and wrapping: after first touch everything is L1I-resident,
/// so the line-granular fast path covers 15 of every 16 instructions.
fn straightline_ops(n: u64) -> Vec<TraceOp> {
    let span = 256 * 64;
    (0..n)
        .map(|i| TraceOp {
            pc: Addr(0x0040_0000 + (i * 4) % span),
            kind: OpKind::Other,
        })
        .collect()
}

/// Default allowed slowdown for `--check`, percent.
const DEFAULT_TOLERANCE_PCT: f64 = 10.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let quick = args.iter().any(|a| a == "--quick");
    let path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| std::env::var(BASELINE_ENV).ok().filter(|v| !v.is_empty()))
        .unwrap_or_else(|| DEFAULT_PATH.to_string());

    let reps = std::env::var("IPSIM_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 5 } else { 9 });

    eprintln!("bench_snapshot: {reps} samples per bench (min-of-N)...");
    let results = run_all(reps);
    for r in &results {
        eprintln!(
            "  {:<38} {:>9.3} ms  {:>7.1} ns/op",
            r.name,
            r.min_ms,
            r.ns_per_op()
        );
    }

    if check {
        std::process::exit(check_against(&path, &results));
    }
    let baseline = std::fs::read_to_string(&path)
        .ok()
        .and_then(|old| extract_baseline_block(&old));
    std::fs::write(&path, render(&results, baseline.as_deref())).expect("write snapshot");
    eprintln!("bench_snapshot: wrote {path}");
}

/// One measured bench: the minimum over N samples.
struct BenchResult {
    name: &'static str,
    ops: u64,
    min_ms: f64,
}

impl BenchResult {
    fn ns_per_op(&self) -> f64 {
        self.min_ms * 1e6 / self.ops as f64
    }
}

/// Times `body` (one full sample per call) `reps` times after two warm-up
/// calls; returns the minimum in milliseconds.
fn min_of<F: FnMut()>(reps: u32, mut body: F) -> f64 {
    for _ in 0..2 {
        body();
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        body();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Serves a pre-generated op buffer, cycling — isolates the simulation
/// kernel from walker generation cost (mirrors the criterion bench).
struct SliceSource<'a> {
    ops: &'a [TraceOp],
    pos: usize,
}

impl OpSource for SliceSource<'_> {
    fn next_op(&mut self) -> TraceOp {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        op
    }

    fn next_block(&mut self, out: &mut [TraceOp]) {
        for slot in out {
            *slot = self.ops[self.pos];
            self.pos += 1;
            if self.pos == self.ops.len() {
                self.pos = 0;
            }
        }
    }
}

fn run_all(reps: u32) -> Vec<BenchResult> {
    let prog = Workload::Web.build_program(1);
    let profile = Workload::Web.profile();
    let mut results = Vec::new();

    results.push(BenchResult {
        name: "system/single_core_baseline_100k",
        ops: INSTRS,
        min_ms: min_of(reps, || {
            let mut system = SystemBuilder::single_core().build().unwrap();
            let mut walker = TraceWalker::new(&prog, profile.clone(), 0, 5);
            let mut sources: Vec<&mut dyn OpSource> = vec![&mut walker];
            system.run(&mut sources, INSTRS);
            assert!(system.metrics().instructions() == INSTRS);
        }),
    });

    let mut walker = TraceWalker::new(&prog, profile.clone(), 0, 5);
    let ops: Vec<TraceOp> = (0..INSTRS)
        .map(|_| TraceSource::next_op(&mut walker))
        .collect();
    results.push(BenchResult {
        name: "system/single_core_kernel_only_100k",
        ops: INSTRS,
        min_ms: min_of(reps, || {
            let mut system = SystemBuilder::single_core().build().unwrap();
            let mut source = SliceSource { ops: &ops, pos: 0 };
            let mut sources: Vec<&mut dyn OpSource> = vec![&mut source];
            system.run(&mut sources, INSTRS);
            assert!(system.metrics().instructions() == INSTRS);
        }),
    });

    // Zero-copy replay of the same kernel-only stream: `System::run` pulls
    // borrowed slices straight from the arena instead of copying blocks
    // into a staging buffer — what the harness's arena replay path sees on
    // a realistic instruction mix.
    results.push(BenchResult {
        name: "system/single_core_arena_replay_100k",
        ops: INSTRS,
        min_ms: min_of(reps, || {
            let mut system = SystemBuilder::single_core().build().unwrap();
            let mut source = ArenaSource::new(ops.as_slice());
            let mut sources: Vec<&mut dyn OpSource> = vec![&mut source];
            system.run(&mut sources, INSTRS);
            assert!(system.metrics().instructions() == INSTRS);
        }),
    });

    // Straight-line fetch in an L1I-resident footprint, served zero-copy:
    // the line-granular fast path's best case (one tag probe per line,
    // fifteen O(1) advances). This is the bench the fast-path win is
    // gated on. The scheduler quantum is opened to its maximum — exact
    // for a single core (no interleaving to perturb) and the intended
    // configuration for batch replays of decoded arenas.
    let straight = straightline_ops(STRAIGHT_BUF);
    results.push(BenchResult {
        name: "system/single_core_straightline_1m",
        ops: STRAIGHT_INSTRS,
        min_ms: min_of(reps, || {
            let mut config = ipsim_types::SystemConfig::single_core();
            config.sched_quantum = ipsim_types::config::MAX_SCHED_QUANTUM;
            let mut system = SystemBuilder::new(config).build().unwrap();
            for _ in 0..STRAIGHT_INSTRS / STRAIGHT_BUF {
                let mut source = ArenaSource::new(straight.as_slice());
                let mut sources: Vec<&mut dyn OpSource> = vec![&mut source];
                system.run(&mut sources, STRAIGHT_BUF);
            }
            assert!(system.metrics().instructions() == STRAIGHT_INSTRS);
        }),
    });

    // The baseline run with telemetry armed: guards the "no regression
    // with telemetry on" half of the fast-path contract (the fast path
    // must not fire-and-miss sampler boundaries, and the telemetry guard
    // checks must stay off the hot path).
    results.push(BenchResult {
        name: "system/single_core_telemetry_100k",
        ops: INSTRS,
        min_ms: min_of(reps, || {
            let mut system = SystemBuilder::single_core().build().unwrap();
            system.enable_telemetry(ipsim_telemetry::TelemetryConfig {
                interval: 10_000,
                max_events_per_core: 4_096,
            });
            let mut walker = TraceWalker::new(&prog, profile.clone(), 0, 5);
            let mut sources: Vec<&mut dyn OpSource> = vec![&mut walker];
            system.run(&mut sources, INSTRS);
            assert!(system.metrics().instructions() == INSTRS);
        }),
    });

    // The baseline run with live [`ipsim_obs`] hooks at far above harness
    // density: a counter/gauge/histogram/span bundle every 1 000
    // instructions (the harness fires a handful per run). The gap to
    // `single_core_baseline_100k` bounds what operational metrics cost
    // when enabled; `tests/obs_overhead.rs` guards the disabled path.
    results.push(BenchResult {
        name: "system/single_core_obs_100k",
        ops: INSTRS,
        min_ms: min_of(reps, || {
            let m = ipsim_obs::metrics();
            let counter = m.counter("ipsim_bench_snapshot_obs_total", &[]);
            let hist = m.histogram("ipsim_bench_snapshot_obs_micros", &[]);
            let spans = ipsim_obs::spans();
            let mut system = SystemBuilder::single_core().build().unwrap();
            let mut walker = TraceWalker::new(&prog, profile.clone(), 0, 5);
            for i in 0..INSTRS / 1_000 {
                let _span = spans.span("bench.obs");
                let mut sources: Vec<&mut dyn OpSource> = vec![&mut walker];
                system.run(&mut sources, 1_000);
                counter.inc();
                hist.observe(i);
            }
            assert!(system.metrics().instructions() == INSTRS);
        }),
    });

    results.push(BenchResult {
        name: "system/single_core_discontinuity_100k",
        ops: INSTRS,
        min_ms: min_of(reps, || {
            let mut system = SystemBuilder::single_core()
                .prefetcher(PrefetcherKind::discontinuity_default())
                .install_policy(InstallPolicy::BypassL2UntilUseful)
                .build()
                .unwrap();
            let mut walker = TraceWalker::new(&prog, profile.clone(), 0, 5);
            let mut sources: Vec<&mut dyn OpSource> = vec![&mut walker];
            system.run(&mut sources, INSTRS);
            assert!(system.metrics().instructions() == INSTRS);
        }),
    });

    // Same scheme as `single_core_discontinuity_100k` but hosted in a
    // zoo of one: the gap between the two entries is the cost of the
    // trait indirection plus shadow attribution.
    let zoo_plan = ipsim_prefetch::ZooPlan::parse("disc").unwrap();
    results.push(BenchResult {
        name: "system/single_core_zoo_disc_100k",
        ops: INSTRS,
        min_ms: min_of(reps, || {
            let mut system = SystemBuilder::single_core()
                .zoo(zoo_plan.clone())
                .install_policy(InstallPolicy::BypassL2UntilUseful)
                .build()
                .unwrap();
            let mut walker = TraceWalker::new(&prog, profile.clone(), 0, 5);
            let mut sources: Vec<&mut dyn OpSource> = vec![&mut walker];
            system.run(&mut sources, INSTRS);
            assert!(system.metrics().instructions() == INSTRS);
        }),
    });

    results.push(BenchResult {
        name: "system/cmp4_baseline_100k_per_core",
        ops: INSTRS,
        min_ms: min_of(reps, || {
            let mut system = SystemBuilder::cmp4().build().unwrap();
            let mut walkers: Vec<TraceWalker<'_>> = (0..4)
                .map(|i| TraceWalker::new(&prog, profile.clone(), i, 5))
                .collect();
            let mut sources: Vec<&mut dyn OpSource> =
                walkers.iter_mut().map(|w| w as &mut dyn OpSource).collect();
            system.run(&mut sources, INSTRS / 4);
        }),
    });

    // Synthesis of the DB program (the most basic blocks of the four
    // workloads). Sweeps and the daemon build each program once per trace
    // store, so a synthesis slowdown would hide behind the cache in every
    // end-to-end number; this entry gates it directly. One op is one
    // synthesised block.
    let db_blocks = u64::from(Workload::Db.build_program(1).n_blocks());
    results.push(BenchResult {
        name: "trace/program_build_db",
        ops: db_blocks,
        min_ms: min_of(reps, || {
            let prog = Workload::Db.build_program(1);
            assert!(u64::from(prog.n_blocks()) == db_blocks);
        }),
    });

    let mut hit_cache = SetAssocCache::new(CacheConfig::default_l1());
    for l in 0..512u64 {
        hit_cache.fill(LineAddr(l), FillKind::Demand);
    }
    results.push(BenchResult {
        name: "cache/hit_path_1m",
        ops: CACHE_OPS,
        min_ms: min_of(reps, || {
            let mut sum = 0u64;
            for i in 0..CACHE_OPS {
                sum += u64::from(hit_cache.access(LineAddr(i % 512)).is_hit());
            }
            assert!(sum == CACHE_OPS);
        }),
    });

    results.push(BenchResult {
        name: "cache/miss_and_fill_1m",
        ops: CACHE_OPS,
        min_ms: min_of(reps, || {
            let mut cache = SetAssocCache::new(CacheConfig::default_l1());
            let mut rng = Rng64::new(1);
            for _ in 0..CACHE_OPS {
                let line = LineAddr(rng.next_u64() & 0xFFFF);
                if !cache.access(line).is_hit() {
                    cache.fill(line, FillKind::Demand);
                }
            }
        }),
    });

    results
}

/// Renders the snapshot JSON. `baseline` is the raw `"baseline": {...}`
/// block from a previous snapshot, carried forward verbatim.
fn render(results: &[BenchResult], baseline: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ipsim-bench-snapshot v1\",\n");
    out.push_str(
        "  \"note\": \"min-of-N hand-timed samples; regenerate with \
         `cargo run --release -p ipsim-bench --bin bench_snapshot` on a quiet machine; \
         `--check` gates system/* and trace/* at IPSIM_BENCH_TOLERANCE (default 10%)\",\n",
    );
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"ops\": {}, \"min_ms\": {:.3}, \"ns_per_op\": {:.1}}}{}",
            r.name,
            r.ops,
            r.min_ms,
            r.ns_per_op(),
            if i + 1 == results.len() { "" } else { "," },
        );
    }
    out.push_str("  ]");
    if let Some(block) = baseline {
        out.push_str(",\n  \"baseline\": ");
        out.push_str(block);
    }
    out.push_str("\n}\n");
    out
}

/// Extracts the raw `"baseline"` object from a snapshot this tool wrote
/// (stable formatting: the block runs to the first line that is exactly
/// `  }`). Returns `None` when the file has no baseline block.
fn extract_baseline_block(json: &str) -> Option<String> {
    let start = json.find("\"baseline\": ")? + "\"baseline\": ".len();
    let rest = &json[start..];
    let end = rest.find("\n  }")? + "\n  }".len();
    Some(rest[..end].to_string())
}

/// Pulls `(name, min_ms)` pairs out of a snapshot's `"benches"` array.
fn extract_benches(json: &str) -> Vec<(String, f64)> {
    let Some(start) = json.find("\"benches\": [") else {
        return Vec::new();
    };
    let body = &json[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let mut out = Vec::new();
    for line in body.lines() {
        let Some(name) = field_str(line, "\"name\": \"") else {
            continue;
        };
        let Some(min_ms) = field_num(line, "\"min_ms\": ") else {
            continue;
        };
        out.push((name, min_ms));
    }
    out
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls the top-level `"commit"` and `"method"` strings out of a
/// snapshot's baseline block, if it has one. The block nests follow-up
/// PR sub-blocks with their own commit/method, but those come later in
/// the text, so the first occurrence of each key is the top-level pair.
fn baseline_provenance(json: &str) -> Option<(String, String)> {
    let block = extract_baseline_block(json)?;
    let commit = field_str(&block, "\"commit\": \"")?;
    let method = field_str(&block, "\"method\": \"")?;
    Some((commit, method))
}

/// Compares fresh `results` against the committed snapshot at `path`.
/// Returns the process exit code: 0 on pass, 1 on regression or a missing
/// / unreadable snapshot. A regressed bench prints the band it had to
/// land in, and the failure footer names where the committed numbers
/// came from (baseline commit + measurement method) so the reader can
/// judge whether the comparison is even meaningful on this machine.
fn check_against(path: &str, results: &[BenchResult]) -> i32 {
    let tolerance_pct = std::env::var("IPSIM_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_TOLERANCE_PCT);
    let Ok(committed_text) = std::fs::read_to_string(path) else {
        eprintln!("bench_snapshot: no committed snapshot at {path}");
        return 1;
    };
    let committed = extract_benches(&committed_text);
    if committed.is_empty() {
        eprintln!("bench_snapshot: {path} has no readable benches");
        return 1;
    }
    let mut failed = false;
    let gated = |name: &str| name.starts_with("system/") || name.starts_with("trace/");
    for r in results.iter().filter(|r| gated(r.name)) {
        let Some((_, committed_ms)) = committed.iter().find(|(n, _)| n == r.name) else {
            eprintln!("  {:<38} not in committed snapshot (new bench?)", r.name);
            continue;
        };
        let allowed_ms = committed_ms * (1.0 + tolerance_pct / 100.0);
        let delta_pct = (r.min_ms / committed_ms - 1.0) * 100.0;
        if delta_pct > tolerance_pct {
            failed = true;
            eprintln!(
                "  {:<38} committed {:>8.3} ms, now {:>8.3} ms ({:+.1}%) REGRESSED \
                 [band: <= {:.3} ms at {}% tolerance]",
                r.name, committed_ms, r.min_ms, delta_pct, allowed_ms, tolerance_pct,
            );
        } else {
            eprintln!(
                "  {:<38} committed {:>8.3} ms, now {:>8.3} ms ({:+.1}%) ok",
                r.name, committed_ms, r.min_ms, delta_pct,
            );
        }
    }
    if failed {
        eprintln!(
            "bench_snapshot: a gated bench regressed more than {tolerance_pct}% \
             vs {path} (set IPSIM_BENCH_TOLERANCE to widen on noisy machines)"
        );
        match baseline_provenance(&committed_text) {
            Some((commit, method)) => {
                eprintln!("  committed numbers: snapshot at {path}, baseline commit {commit}");
                eprintln!("  baseline method: {method}");
            }
            None => {
                eprintln!("  committed numbers: snapshot at {path} (no baseline provenance block)")
            }
        }
        1
    } else {
        0
    }
}
