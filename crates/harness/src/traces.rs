//! The on-disk trace store: capture each workload's instruction stream
//! once, replay it for every other configuration that shares it.
//!
//! A [`crate::spec::RunSpec`]'s instruction stream depends only on its
//! *workload half* — core count, workload assignment, seeds and run
//! lengths — not on caches, prefetchers or policies. A 13-figure sweep
//! therefore simulates the same handful of streams dozens of times. The
//! store keys streams by [`crate::spec::RunSpec::trace_key`] and keeps one
//! file per core under one directory (default `results/traces/`,
//! overridable via [`TRACE_DIR_ENV`]):
//!
//! ```text
//! results/traces/<trace_key>.c<core>.itrace
//! ```
//!
//! Every run is served from exactly one of two places: a decoded in-memory
//! arena, or the live walker over the store's shared programs. In order:
//!
//! 1. the store is disabled → live;
//! 2. the stream (`n_cores × (warm + measure)` ops) exceeds the arena
//!    budget ([`ARENA_OPS_ENV`]) → live, with no claim, no files and no
//!    arena — replaying a stream the arena cannot hold is slower than
//!    walking it;
//! 3. the stream's arena is cached → replay from it;
//! 4. its files exist and fit the remaining budget → decode them into an
//!    arena and replay;
//! 5. its files exist but no longer fit → live, files left untouched;
//! 6. its files are missing → capture if this thread wins the claim,
//!    live otherwise.
//!
//! Hardening mirrors the run cache ([`crate::cache`]):
//!
//! * captures write to pid-suffixed temp files and rename into place, so
//!   an interrupted capture never leaves a plausible-looking trace;
//! * replay decodes the whole stream before the simulation starts,
//!   checking every block CRC and the op count, so a corrupt or
//!   wrong-length file is quarantined to `*.corrupt` (evidence, not
//!   deleted) and the run re-captures — there is no mid-run failure path;
//! * capture I/O errors degrade the run to plain live generation
//!   (the simulation result is identical either way).
//!
//! The store also owns the synthesised programs its live and capture runs
//! walk: each distinct `(workload, program seed)` is built at most once per
//! store and shared as `Arc<Program>` (DESIGN.md §16). A store lives for
//! one sweep, or for the whole daemon in `ipsim-serve`, so programs never
//! outlive the runs that asked for them and a fresh store starts cold.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File};
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ipsim_cpu::{OpSource, System, WorkloadSet};
use ipsim_stream::{ArenaSource, Tee, TraceReader, TraceWriter};
use ipsim_telemetry::{TelemetryConfig, TelemetryRun};
use ipsim_trace::{Program, TraceWalker, Workload};
use ipsim_types::instr::TraceOp;

use crate::spec::RunSpec;
use crate::summary::Summary;

/// Environment variable overriding the trace directory. The values `off`
/// and `0` disable the store entirely.
pub const TRACE_DIR_ENV: &str = "IPSIM_TRACE_DIR";

/// Default trace directory, relative to the working directory.
pub const DEFAULT_TRACE_DIR: &str = "results/traces";

/// Environment variable overriding the in-memory arena budget, in total
/// decoded ops held across all cached streams. Read once, when a store is
/// built. Streams that do not fit run live; `0` replays nothing.
pub const ARENA_OPS_ENV: &str = "IPSIM_ARENA_OPS";

/// Default arena budget: 16 million ops (~a few hundred MB at `TraceOp`
/// width) — every one-core `--quick` stream fits, while full-length and
/// multi-core `--quick` streams run live; far below a machine-threatening
/// allocation.
pub const DEFAULT_ARENA_OPS: u64 = 16_000_000;

fn arena_budget_from_env() -> u64 {
    std::env::var(ARENA_OPS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_ARENA_OPS)
}

/// A reusable simulator slot: keeps the last [`System`] built for a
/// [`RunSpec::system_key`] and serves it back reset-in-place
/// ([`System::reset_cold`]) instead of re-allocating caches, predictors
/// and queues for every run. A sweep varies workloads far more often than
/// systems, so the common case is a key hit.
///
/// The slot is ownership-transfer, not borrowing: [`SystemSlot::take`]
/// moves the system out and [`SystemSlot::put`] returns it. If a run
/// panics between the two, the system is simply never returned and the
/// next `take` builds fresh — a poisoned simulator can never leak into a
/// later run. One slot per pool worker; slots are not `Sync`.
#[derive(Default)]
pub struct SystemSlot {
    key: Option<String>,
    system: Option<System>,
}

impl SystemSlot {
    /// An empty slot; the first [`SystemSlot::take`] builds fresh.
    pub fn new() -> SystemSlot {
        SystemSlot::default()
    }

    /// A system for `spec`: the stored one reset in place when its
    /// [`RunSpec::system_key`] matches, a fresh build otherwise.
    pub fn take(&mut self, spec: &RunSpec) -> System {
        let want = spec.system_key();
        let system = match (self.key.as_deref(), self.system.take()) {
            (Some(have), Some(mut system)) if have == want => {
                system.reset_cold();
                system
            }
            _ => spec.build_system(),
        };
        self.key = Some(want);
        system
    }

    /// Returns a system taken with [`SystemSlot::take`] for reuse. Only
    /// hand back the system from the matching `take` — the slot assumes
    /// it corresponds to the key recorded there.
    pub fn put(&mut self, system: System) {
        self.system = Some(system);
    }
}

/// One fully decoded stream set (all cores of one trace key) plus the
/// decode throughput observed while building it.
#[derive(Debug, Clone)]
struct CachedArena {
    ops: Arc<Vec<Vec<TraceOp>>>,
    decode_mips: f64,
}

/// Per-core view into a shared arena, so each core's [`ArenaSource`] can
/// borrow its slice while all cores share one `Arc`.
struct CoreOps {
    arena: Arc<Vec<Vec<TraceOp>>>,
    core: usize,
}

impl AsRef<[TraceOp]> for CoreOps {
    fn as_ref(&self) -> &[TraceOp] {
        &self.arena[self.core]
    }
}

/// Arena admission outcome for one stream that fits the budget.
enum ArenaOutcome {
    /// Decoded (or already cached) streams, ready to serve zero-copy.
    Hit(CachedArena),
    /// Every per-core file exists, but the arena has no room left for
    /// them — run live and leave the files alone.
    Full,
    /// A per-core file is missing or corrupt — capture instead.
    Missing,
}

/// Where a run's result (and instruction stream) came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSource {
    /// Summary served from the on-disk run cache; nothing simulated.
    Cache,
    /// Simulated with live walker generation: the store is disabled, the
    /// stream does not fit the arena budget, or its capture was claimed by
    /// another worker or could not be written.
    Live,
    /// Simulated live while writing the stream to the trace store.
    Capture,
    /// Simulated from a decoded arena, no walker involved.
    Replay,
}

impl RunSource {
    /// Stable lower-case token used in the run log.
    pub fn as_str(self) -> &'static str {
        match self {
            RunSource::Cache => "cache",
            RunSource::Live => "live",
            RunSource::Capture => "capture",
            RunSource::Replay => "replay",
        }
    }
}

/// Outcome of executing one spec through the store.
pub struct TracedRun {
    /// The simulation summary.
    pub summary: Summary,
    /// How the instruction stream was produced.
    pub source: RunSource,
    /// Throughput of the arena decode this replay was served from
    /// (million ops per second through the whole-stream decode, block CRC
    /// checks included), measured once when the arena was built and shared
    /// by every replay of it; 0 for non-replay runs. A drop in this column
    /// means trace I/O or decoding got slower, independent of simulation
    /// speed.
    pub decode_mips: f64,
    /// Kernel-only simulation throughput (million simulated instructions
    /// per host second over the *measured* window, excluding system
    /// construction, warm-up, trace decode and capture I/O); 0 for
    /// cache hits. Compare against the run-level `mips` to see how much
    /// wall time goes to overhead around the simulation loop.
    pub sim_mips: f64,
    /// Wall seconds inside the measured simulation window (the denominator
    /// of [`TracedRun::sim_mips`]); 0 for cache hits. Sweep-level
    /// aggregation weights per-run `sim_mips` by this, so the aggregate is
    /// total measured instructions over total kernel seconds rather than
    /// an unweighted mean of rates.
    pub sim_seconds: f64,
    /// Telemetry collected over the measurement window; `Some` iff the
    /// run was executed with a [`TelemetryConfig`]. Replay, capture and
    /// live paths all collect identically — telemetry observes the
    /// simulation, not the stream source.
    pub telemetry: Option<TelemetryRun>,
}

/// A trace store rooted at one directory, with capture/replay accounting.
///
/// All methods take `&self`; counters are atomic and the capture-claim set
/// is mutex-guarded, so one store is shared across the worker pool.
#[derive(Debug)]
pub struct TraceStore {
    /// `None` disables capture and replay entirely.
    dir: Option<PathBuf>,
    /// Most decoded ops the arena cache may hold ([`ARENA_OPS_ENV`], read
    /// when the store is built).
    arena_budget: u64,
    captured: AtomicU64,
    replayed: AtomicU64,
    quarantined: AtomicU64,
    /// Trace keys some thread is currently capturing (or has captured)
    /// this process; prevents two workers racing to write the same files.
    claims: Mutex<HashSet<String>>,
    /// Fully decoded streams, keyed by trace key and shared across the
    /// worker pool; `total_ops` tracks the store-wide arena budget.
    arenas: Mutex<ArenaCache>,
    /// Programs synthesised for live and capture runs, shared across the
    /// worker pool for the store's lifetime.
    program_cache: ProgramCache,
}

/// A program slot, filled by the first worker that asks for it.
type ProgramCell = Arc<OnceLock<Arc<Program>>>;

/// One cell per `(workload, program seed)`: the map lock is held only to
/// find the cell, and [`OnceLock::get_or_init`] makes concurrent workers
/// wanting the same program wait for one build instead of racing.
#[derive(Debug, Default)]
struct ProgramCache {
    cells: Mutex<HashMap<(Workload, u64), ProgramCell>>,
    builds: AtomicU64,
    reuses: AtomicU64,
}

impl ProgramCache {
    /// The program for `(workload, seed)`, built on first request.
    fn get(&self, workload: Workload, seed: u64) -> Arc<Program> {
        let cell = self
            .cells
            .lock()
            .unwrap()
            .entry((workload, seed))
            .or_default()
            .clone();
        let mut built = false;
        let program = cell.get_or_init(|| {
            built = true;
            let _synth = ipsim_obs::spans().span("trace.synth");
            Arc::new(workload.build_program(seed))
        });
        if built {
            self.builds.fetch_add(1, Ordering::Relaxed);
            crate::obs::obs().program_builds.inc();
        } else {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            crate::obs::obs().program_reuses.inc();
        }
        program.clone()
    }
}

#[derive(Debug, Default)]
struct ArenaCache {
    map: HashMap<String, CachedArena>,
    total_ops: u64,
}

impl TraceStore {
    fn new(dir: Option<PathBuf>) -> TraceStore {
        TraceStore {
            dir,
            arena_budget: arena_budget_from_env(),
            captured: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            claims: Mutex::new(HashSet::new()),
            arenas: Mutex::new(ArenaCache::default()),
            program_cache: ProgramCache::default(),
        }
    }

    /// A store rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> TraceStore {
        TraceStore::new(Some(dir.into()))
    }

    /// A disabled store: every run executes live.
    pub fn disabled() -> TraceStore {
        TraceStore::new(None)
    }

    /// The store at `$IPSIM_TRACE_DIR` (`off`/`0` disable it), or
    /// [`DEFAULT_TRACE_DIR`] if unset.
    pub fn from_env() -> TraceStore {
        match std::env::var_os(TRACE_DIR_ENV) {
            Some(dir) if dir == "off" || dir == "0" => TraceStore::disabled(),
            Some(dir) if !dir.is_empty() => TraceStore::at(PathBuf::from(dir)),
            _ => TraceStore::at(DEFAULT_TRACE_DIR),
        }
    }

    /// Whether capture/replay is active.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The store's root directory, if enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Workload streams captured to disk by this instance.
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Runs fed from stored traces by this instance.
    pub fn replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Corrupt trace files quarantined by this instance.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Programs synthesised by this instance (at most one per distinct
    /// workload and program seed).
    pub fn program_builds(&self) -> u64 {
        self.program_cache.builds.load(Ordering::Relaxed)
    }

    /// Program requests this instance served from an earlier build.
    pub fn program_reuses(&self) -> u64 {
        self.program_cache.reuses.load(Ordering::Relaxed)
    }

    /// The programs `workloads` runs on its first `n_cores` cores, as
    /// [`WorkloadSet::programs`] builds them, but each synthesised at most
    /// once per store and shared from then on.
    pub fn programs(&self, workloads: &WorkloadSet, n_cores: u32) -> Vec<(Workload, Arc<Program>)> {
        workloads.programs_via(n_cores, |w, seed| self.program_cache.get(w, seed))
    }

    /// Executes `spec` from the arena or live, capturing first when its
    /// stream fits the arena but has no files yet (see the module docs).
    /// Never fails harder than [`RunSpec::execute`] itself: every store
    /// problem downgrades the run, it never aborts it.
    pub fn execute(&self, spec: &RunSpec) -> TracedRun {
        self.execute_with(spec, None)
    }

    /// Like [`TraceStore::execute`], but collecting telemetry over the
    /// measurement window when a config is given. The stream path chosen
    /// (replay / capture / live) is unaffected by telemetry, and — because
    /// telemetry never perturbs simulation — neither is the summary.
    pub fn execute_with(&self, spec: &RunSpec, telemetry: Option<&TelemetryConfig>) -> TracedRun {
        self.execute_in(spec, telemetry, &mut SystemSlot::new())
    }

    /// Like [`TraceStore::execute_with`], but drawing the simulator from
    /// `slot` ([`SystemSlot::take`]) and returning it afterwards, so
    /// back-to-back runs over the same system configuration reset in
    /// place instead of rebuilding. Results are identical to a fresh
    /// build ([`System::reset_cold`] restores post-construction state
    /// exactly); only construction cost changes.
    pub fn execute_in(
        &self,
        spec: &RunSpec,
        telemetry: Option<&TelemetryConfig>,
        slot: &mut SystemSlot,
    ) -> TracedRun {
        let n_cores = spec.config.n_cores;
        let per_core_ops = spec.lengths.warm + spec.lengths.measure;
        let dir = match self.dir.as_deref() {
            Some(dir) if per_core_ops * u64::from(n_cores) <= self.arena_budget => dir,
            _ => return self.live_run(spec, telemetry, slot),
        };
        let key = spec.trace_key();
        let replay = ipsim_obs::spans().span("trace.replay");
        match self.arena_for(dir, &key, n_cores, per_core_ops) {
            ArenaOutcome::Hit(arena) => {
                let mut sources: Vec<ArenaSource<CoreOps>> = (0..arena.ops.len())
                    .map(|core| {
                        ArenaSource::new(CoreOps {
                            arena: arena.ops.clone(),
                            core,
                        })
                    })
                    .collect();
                let run = simulate(
                    spec,
                    telemetry,
                    slot,
                    &mut sources,
                    RunSource::Replay,
                    arena.decode_mips,
                );
                self.replayed.fetch_add(1, Ordering::Relaxed);
                run
            }
            ArenaOutcome::Full => {
                drop(replay);
                self.live_run(spec, telemetry, slot)
            }
            ArenaOutcome::Missing => {
                drop(replay);
                self.capture_or_live(dir, spec, &key, telemetry, slot)
            }
        }
    }

    /// Finds or builds the decoded arena for `key`. Decode happens outside
    /// the cache lock (workers decoding different keys don't serialise);
    /// the budget is re-checked at insert, and a losing racer simply serves
    /// from its private copy without caching it.
    fn arena_for(&self, dir: &Path, key: &str, n_cores: u32, per_core_ops: u64) -> ArenaOutcome {
        let total_ops = per_core_ops * u64::from(n_cores);
        let paths: Vec<PathBuf> = (0..n_cores).map(|core| core_path(dir, key, core)).collect();
        let fits = {
            let cache = self.arenas.lock().unwrap();
            if let Some(cached) = cache.map.get(key) {
                return ArenaOutcome::Hit(cached.clone());
            }
            cache.total_ops + total_ops <= self.arena_budget
        };
        if !fits {
            // Files that will not be read are neither checked nor
            // quarantined, so a full arena never rewrites a good trace.
            return if paths.iter().all(|path| path.is_file()) {
                ArenaOutcome::Full
            } else {
                ArenaOutcome::Missing
            };
        }
        let t0 = Instant::now();
        let mut cores: Vec<Vec<TraceOp>> = Vec::with_capacity(n_cores as usize);
        for path in &paths {
            let Ok(file) = File::open(path) else {
                return ArenaOutcome::Missing;
            };
            let decoded = TraceReader::open(BufReader::new(file)).and_then(|mut reader| {
                let mut ops = Vec::new();
                reader.decode_all_into(&mut ops).map(|stats| (ops, stats))
            });
            match decoded {
                Ok((ops, stats)) if stats.ops == per_core_ops => cores.push(ops),
                // Corrupt, truncated, or a valid file of the wrong length
                // (key tampering): quarantine and recapture.
                Ok(_) | Err(_) => {
                    self.quarantine(path);
                    return ArenaOutcome::Missing;
                }
            }
        }
        let decode_s = t0.elapsed().as_secs_f64();
        let arena = CachedArena {
            ops: Arc::new(cores),
            decode_mips: if decode_s > 0.0 {
                total_ops as f64 / 1e6 / decode_s
            } else {
                0.0
            },
        };
        let mut cache = self.arenas.lock().unwrap();
        if let Some(existing) = cache.map.get(key) {
            return ArenaOutcome::Hit(existing.clone());
        }
        if cache.total_ops + total_ops <= self.arena_budget {
            cache.total_ops += total_ops;
            cache.map.insert(key.to_string(), arena.clone());
        }
        ArenaOutcome::Hit(arena)
    }

    /// Runs `spec` live, capturing the stream if this thread wins the
    /// claim for `key` and the capture files can be written.
    fn capture_or_live(
        &self,
        dir: &Path,
        spec: &RunSpec,
        key: &str,
        telemetry: Option<&TelemetryConfig>,
        slot: &mut SystemSlot,
    ) -> TracedRun {
        let _capture = ipsim_obs::spans().span("trace.capture");
        let claimed = self.claims.lock().unwrap().insert(key.to_string());
        if !claimed || fs::create_dir_all(dir).is_err() {
            // Someone else is already writing this stream (or the store
            // directory is unusable): plain live run.
            return self.live_run(spec, telemetry, slot);
        }

        let n_cores = spec.config.n_cores;
        let pid = std::process::id();
        let mut tmp_paths: Vec<PathBuf> = Vec::with_capacity(n_cores as usize);
        let mut writers: Vec<TraceWriter<BufWriter<File>>> = Vec::with_capacity(n_cores as usize);
        for core in 0..n_cores {
            let tmp = dir.join(format!(".{key}.c{core}.{pid}.tmp"));
            let writer = File::create(&tmp)
                .ok()
                .and_then(|f| TraceWriter::new(BufWriter::new(f), core, &spec.trace_meta()).ok());
            match writer {
                Some(w) => {
                    tmp_paths.push(tmp);
                    writers.push(w);
                }
                None => {
                    discard(&tmp_paths);
                    return self.live_run(spec, telemetry, slot);
                }
            }
        }

        // Drive the run through capture tees: identical walkers to a live
        // run, with every op mirrored to its core's writer.
        let programs = self.programs(&spec.workloads, n_cores);
        let mut tees: Vec<_> = writers
            .into_iter()
            .enumerate()
            .map(|(c, w)| Tee::new(spec.workloads.walker(&programs, c as u32), w))
            .collect();
        let mut run = simulate(spec, telemetry, slot, &mut tees, RunSource::Capture, 0.0);

        // Seal and publish. Any sink error (latched mid-run or at finish)
        // voids the whole capture but never the simulation result.
        let mut sealed = true;
        for tee in tees {
            let (writer, err) = tee.into_parts();
            if err.is_some() || writer.finish().is_err() {
                sealed = false;
            }
        }
        if sealed {
            for (core, tmp) in tmp_paths.iter().enumerate() {
                if fs::rename(tmp, core_path(dir, key, core as u32)).is_err() {
                    sealed = false;
                    break;
                }
            }
        }
        if sealed {
            self.captured.fetch_add(1, Ordering::Relaxed);
        } else {
            discard(&tmp_paths);
            run.source = RunSource::Live;
        }
        run
    }

    /// Executes `spec` with plain live generation over the store's shared
    /// programs (no trace files involved): the walkers and stream of
    /// [`System::run_workload`], without re-synthesising the programs.
    fn live_run(
        &self,
        spec: &RunSpec,
        telemetry: Option<&TelemetryConfig>,
        slot: &mut SystemSlot,
    ) -> TracedRun {
        let n_cores = spec.config.n_cores;
        let programs = self.programs(&spec.workloads, n_cores);
        let mut walkers: Vec<TraceWalker<'_>> = (0..n_cores)
            .map(|c| spec.workloads.walker(&programs, c))
            .collect();
        simulate(spec, telemetry, slot, &mut walkers, RunSource::Live, 0.0)
    }

    /// Moves a corrupt trace aside, preserving it for inspection.
    fn quarantine(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let mut quarantined = path.as_os_str().to_owned();
        quarantined.push(".corrupt");
        if fs::rename(path, PathBuf::from(quarantined)).is_err() {
            let _ = fs::remove_file(path);
        }
    }
}

/// Simulates `spec` over one op source per core and packages the result
/// as a [`TracedRun`] from `source` — the one place every stream path
/// (replay, capture, live) turns its sources into a run. The system comes
/// from `slot` with telemetry armed when a config is given
/// ([`System::reset_cold`] disarms it, so a reused system never inherits
/// instrumentation from its previous run) and goes back afterwards.
fn simulate<S: OpSource>(
    spec: &RunSpec,
    telemetry: Option<&TelemetryConfig>,
    slot: &mut SystemSlot,
    sources: &mut [S],
    source: RunSource,
    decode_mips: f64,
) -> TracedRun {
    let mut system = slot.take(spec);
    if let Some(config) = telemetry {
        system.enable_telemetry(config.clone());
    }
    let mut dyns: Vec<&mut dyn OpSource> =
        sources.iter_mut().map(|s| s as &mut dyn OpSource).collect();
    let metrics = system.run_workload_from(&mut dyns, spec.lengths.warm, spec.lengths.measure);
    let run = TracedRun {
        summary: Summary::from_metrics(&metrics),
        source,
        decode_mips,
        sim_mips: metrics.sim_mips(),
        sim_seconds: metrics.sim_wall_seconds,
        telemetry: system.take_telemetry(),
    };
    slot.put(system);
    run
}

/// Path of the per-core trace file for a trace key.
fn core_path(dir: &Path, key: &str, core: u32) -> PathBuf {
    dir.join(format!("{key}.c{core}.itrace"))
}

/// Removes leftover capture temp files (best effort).
fn discard(tmp_paths: &[PathBuf]) {
    for tmp in tmp_paths {
        let _ = fs::remove_file(tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunLengths;
    use ipsim_cpu::WorkloadSet;
    use ipsim_trace::Workload;
    use ipsim_types::SystemConfig;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ipsim-traces-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> RunSpec {
        RunSpec::new(
            SystemConfig::single_core(),
            WorkloadSet::homogeneous(Workload::Db),
            RunLengths {
                warm: 1_000,
                measure: 3_000,
            },
        )
    }

    #[test]
    fn capture_then_replay_matches_live() {
        let dir = tmp_dir("roundtrip");
        let store = TraceStore::at(&dir);
        let spec = spec();
        let live = spec.execute();

        let first = store.execute(&spec);
        assert_eq!(first.source, RunSource::Capture);
        assert_eq!(first.summary, live);

        let second = store.execute(&spec);
        assert_eq!(second.source, RunSource::Replay);
        assert_eq!(second.summary, live);
        assert!(second.decode_mips >= 0.0);
        assert!(first.sim_mips > 0.0, "capture runs are timed");
        assert!(second.sim_mips > 0.0, "replay runs are timed");

        assert_eq!((store.captured(), store.replayed()), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_works_across_configs_sharing_the_stream() {
        let dir = tmp_dir("crossconfig");
        let store = TraceStore::at(&dir);
        let base = spec();
        let other = base
            .clone()
            .prefetcher(ipsim_core::PrefetcherKind::NextLineTagged);
        assert_eq!(base.trace_key(), other.trace_key());
        assert_ne!(base.cache_key(), other.cache_key());

        assert_eq!(store.execute(&base).source, RunSource::Capture);
        let replayed = store.execute(&other);
        assert_eq!(replayed.source, RunSource::Replay);
        assert_eq!(replayed.summary, other.execute());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_traces_are_quarantined_and_fall_back_to_live() {
        let dir = tmp_dir("corrupt");
        let store = TraceStore::at(&dir);
        let spec = spec();
        assert_eq!(store.execute(&spec).source, RunSource::Capture);

        // Flip one payload byte in the stored trace.
        let path = core_path(&dir, &spec.trace_key(), 0);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        // A fresh store (no claim memory) quarantines, then re-captures.
        let store2 = TraceStore::at(&dir);
        let run = store2.execute(&spec);
        assert_eq!(run.source, RunSource::Capture);
        assert_eq!(run.summary, spec.execute());
        assert_eq!(store2.quarantined(), 1);
        assert!(!path.exists() || fs::read(&path).unwrap() != bytes);
        let corrupt: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".corrupt"))
            .collect();
        assert_eq!(corrupt.len(), 1);

        // And the re-captured trace replays.
        assert_eq!(store2.execute(&spec).source, RunSource::Replay);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_store_always_runs_live() {
        let store = TraceStore::disabled();
        let run = store.execute(&spec());
        assert_eq!(run.source, RunSource::Live);
        assert!(run.sim_mips > 0.0, "live runs are timed");
        assert_eq!((store.captured(), store.replayed()), (0, 0));
    }

    #[test]
    fn telemetry_flows_through_every_stream_path() {
        let dir = tmp_dir("telemetry");
        let store = TraceStore::at(&dir);
        let spec = spec();
        let config = TelemetryConfig::default();
        let plain = spec.execute();

        let capture = store.execute_with(&spec, Some(&config));
        assert_eq!(capture.source, RunSource::Capture);
        let replay = store.execute_with(&spec, Some(&config));
        assert_eq!(replay.source, RunSource::Replay);
        let live = TraceStore::disabled().execute_with(&spec, Some(&config));
        assert_eq!(live.source, RunSource::Live);

        for run in [&capture, &replay, &live] {
            assert_eq!(run.summary, plain, "telemetry perturbed a summary");
            let telem = run.telemetry.as_ref().expect("telemetry was requested");
            // One core, measure < interval: at least the final snapshot.
            assert!(!telem.samples.is_empty());
        }
        assert!(store.execute(&spec).telemetry.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Reset-in-place must be invisible in results: cycling one slot
    /// through different systems and workloads — forcing both key hits
    /// (reset_cold reuse) and key misses (fresh build) — produces exactly
    /// the summaries fresh systems do, on live and replay paths alike.
    #[test]
    fn slot_reuse_matches_fresh_builds() {
        let dir = tmp_dir("slot");
        let store = TraceStore::at(&dir);
        let base = spec();
        let nl = base
            .clone()
            .prefetcher(ipsim_core::PrefetcherKind::NextLineTagged);
        let mut web = base.clone();
        web.workloads = ipsim_cpu::WorkloadSet::homogeneous(ipsim_trace::Workload::Web);

        // base → base: same system key, second run reuses via reset_cold.
        // base → nl: key miss, fresh build. nl → web(nl-less): miss again.
        // Interleave captures and replays so both paths go through slots.
        let sequence = [&base, &base, &nl, &web, &base, &nl];
        let mut slot = SystemSlot::new();
        for spec in sequence {
            let run = store.execute_in(spec, None, &mut slot);
            assert_eq!(
                run.summary,
                spec.execute(),
                "slot-reused run diverged from a fresh system for {}",
                spec.label()
            );
            assert!(run.sim_seconds > 0.0, "executed runs report kernel time");
        }
        assert!(store.replayed() > 0, "later runs replayed captured streams");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Telemetry must not leak across slot reuses: a telemetry run
    /// followed by a plain run on the same slot collects nothing the
    /// second time.
    #[test]
    fn slot_reuse_does_not_leak_telemetry() {
        let store = TraceStore::disabled();
        let spec = spec();
        let mut slot = SystemSlot::new();
        let with = store.execute_in(&spec, Some(&TelemetryConfig::default()), &mut slot);
        assert!(with.telemetry.is_some());
        let without = store.execute_in(&spec, None, &mut slot);
        assert!(without.telemetry.is_none(), "telemetry survived reset_cold");
        assert_eq!(with.summary, without.summary);
    }

    /// A replayed stream is decoded once into the arena and every later
    /// replay is served from that cached copy; all of them match live.
    #[test]
    fn arena_replay_is_cached_and_agrees_with_live() {
        let dir = tmp_dir("arena");
        let spec = spec();
        let live = spec.execute();

        let store = TraceStore::at(&dir);
        assert_eq!(store.execute(&spec).source, RunSource::Capture);
        let arena = store.execute(&spec);
        assert_eq!(arena.source, RunSource::Replay);
        assert_eq!(arena.summary, live);
        assert!(
            store
                .arenas
                .lock()
                .unwrap()
                .map
                .contains_key(&spec.trace_key()),
            "a budget-sized stream set is cached in the arena"
        );
        // Replays after the first reuse the cached arena (and report the
        // decode throughput observed when it was built).
        let again = store.execute(&spec);
        assert_eq!(again.summary, live);
        assert_eq!(again.decode_mips, arena.decode_mips);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A stream larger than the whole arena budget runs live without
    /// claiming its key or writing a file; a zero budget does the same for
    /// every stream.
    #[test]
    fn over_budget_streams_run_live_and_write_nothing() {
        let dir = tmp_dir("overbudget");
        let spec = spec();
        let ops = spec.lengths.warm + spec.lengths.measure;
        for budget in [ops - 1, 0] {
            let mut store = TraceStore::at(&dir);
            store.arena_budget = budget;
            for _ in 0..2 {
                let run = store.execute(&spec);
                assert_eq!(run.source, RunSource::Live, "budget {budget}");
                assert_eq!(run.summary, spec.execute());
            }
            assert!(store.claims.lock().unwrap().is_empty());
            assert!(store.arenas.lock().unwrap().map.is_empty());
            assert_eq!((store.captured(), store.replayed()), (0, 0));
            assert!(
                fs::read_dir(&dir).map_or(true, |mut d| d.next().is_none()),
                "an over-budget run left files in the store"
            );
        }
    }

    /// Valid files whose stream no longer fits the remaining budget run
    /// live and are left exactly as they were: not decoded, quarantined or
    /// re-captured.
    #[test]
    fn full_arena_runs_live_and_leaves_files_untouched() {
        let dir = tmp_dir("fullarena");
        let a = spec();
        let mut b = a.clone();
        b.workloads = WorkloadSet::homogeneous(Workload::Web);
        assert_ne!(a.trace_key(), b.trace_key());

        let capturer = TraceStore::at(&dir);
        assert_eq!(capturer.execute(&a).source, RunSource::Capture);
        assert_eq!(capturer.execute(&b).source, RunSource::Capture);

        // A fresh store (no claims) whose whole budget `b`'s arena takes.
        let mut store = TraceStore::at(&dir);
        store.arena_budget = a.lengths.warm + a.lengths.measure;
        assert_eq!(store.execute(&b).source, RunSource::Replay);

        let path = core_path(&dir, &a.trace_key(), 0);
        let before = fs::read(&path).unwrap();
        let modified = fs::metadata(&path).unwrap().modified().unwrap();
        let run = store.execute(&a);
        assert_eq!(run.source, RunSource::Live);
        assert_eq!(run.summary, a.execute());
        assert_eq!(fs::read(&path).unwrap(), before);
        assert_eq!(fs::metadata(&path).unwrap().modified().unwrap(), modified);
        assert_eq!(store.quarantined(), 0);
        assert_eq!((store.captured(), store.replayed()), (0, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_claim_prevents_double_capture() {
        let dir = tmp_dir("claims");
        let store = TraceStore::at(&dir);
        let spec = spec();
        // Simulate another worker holding the claim.
        store.claims.lock().unwrap().insert(spec.trace_key());
        let run = store.execute(&spec);
        assert_eq!(run.source, RunSource::Live);
        assert_eq!(store.captured(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Runs `specs` on one thread each, all released together, and
    /// returns each run with the programs its thread drew from the store.
    fn race(store: &TraceStore, specs: &[&RunSpec]) -> Vec<(TracedRun, Arc<Program>)> {
        let barrier = std::sync::Barrier::new(specs.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        let run = store.execute(spec);
                        let programs = store.programs(&spec.workloads, spec.config.n_cores);
                        (run, programs[0].1.clone())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Two threads running different specs over the same workload through
    /// one store share one program, built once, and produce exactly the
    /// summaries a fresh `RunSpec::execute` does — on the live, capture
    /// and replay paths. A fresh store builds again: nothing leaks across
    /// stores.
    #[test]
    fn concurrent_runs_share_one_program_build() {
        let a = spec();
        let b = a
            .clone()
            .prefetcher(ipsim_core::PrefetcherKind::NextLineTagged);
        assert_ne!(a.cache_key(), b.cache_key());
        let want: Vec<String> = [&a, &b].iter().map(|s| s.execute().to_tsv()).collect();
        let check = |runs: &[(TracedRun, Arc<Program>)], path: &str| {
            for ((run, _), want) in runs.iter().zip(&want) {
                assert_eq!(&run.summary.to_tsv(), want, "{path} run diverged");
            }
            assert!(
                Arc::ptr_eq(&runs[0].1, &runs[1].1),
                "{path}: threads got different programs"
            );
        };

        // Live: the store is off, both runs walk the shared program.
        let live = TraceStore::disabled();
        let runs = race(&live, &[&a, &b]);
        check(&runs, "live");
        assert!(runs.iter().all(|(r, _)| r.source == RunSource::Live));
        // Four requests (two runs, two `programs` calls), one build.
        assert_eq!((live.program_builds(), live.program_reuses()), (1, 3));

        // Capture, then replay: one thread wins the capture claim (the
        // other runs live or, if it starts late, replays); replays need no
        // program at all.
        let dir = tmp_dir("share");
        let store = TraceStore::at(&dir);
        let first = race(&store, &[&a, &b]);
        check(&first, "capture");
        assert_eq!(store.captured(), 1);
        assert!(first.iter().any(|(r, _)| r.source == RunSource::Capture));
        let replays = race(&store, &[&a, &b]);
        check(&replays, "replay");
        assert!(replays.iter().all(|(r, _)| r.source == RunSource::Replay));
        assert_eq!(store.program_builds(), 1, "one build per store");
        assert!(
            !Arc::ptr_eq(&first[0].1, &runs[0].1),
            "stores share nothing"
        );

        // A fresh store starts cold.
        let fresh = TraceStore::disabled();
        assert_eq!(fresh.execute(&a).summary.to_tsv(), want[0]);
        assert_eq!((fresh.program_builds(), fresh.program_reuses()), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }
}
