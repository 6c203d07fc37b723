//! The `serve-mixed` workload: an in-process daemon driven by a closed
//! loop of one client over HTTP.
//!
//! The client submits a one-run JSON job, polls it to a terminal state
//! with its own ~1 ms loop, fetches the result, checks it, and only then
//! submits the next. The seeded corpus repeats an earlier spec two times
//! in five (answered from the run cache); the rest are new specs with
//! tiny windows. Every repetition draws the same fixed number of new
//! specs, so it does the same work however fast the host is.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipsim_harness::wire::JobSpec;
use ipsim_harness::{RunCache, RunSpec, Summary};
use ipsim_serve::client;
use ipsim_serve::{start, ServeConfig, ServerHandle, Service};
use ipsim_telemetry::json::{self, Json};

use crate::check;
use crate::report::{self, median, Report};
use crate::spans::Recorder;
use crate::{Options, Workload};

/// Daemon set-ups per repetition; `setup_s` is the median of all of them.
const SETUPS: usize = 5;

/// Warm window of the job that ends each set-up: below [`WARM_BASE`], so
/// its cache and trace keys are never a corpus spec's.
const SETUP_WARM: u64 = 10_000;

/// The fewest repetitions a run makes; a run repeats until `--seconds`
/// have passed.
const MIN_REPS: usize = 3;

/// New specs one repetition draws: one round of the engine deck, so
/// every repetition, whatever the seed, simulates the same engines. The
/// digest covers all of them.
const REP_SPECS: usize = PAIRS.len() * PREFETCHERS.len();

/// Warm window of the first new spec; each further new spec adds
/// [`WARM_STEP`], so every new spec has its own cache key and trace key.
const WARM_BASE: u64 = 20_000;
const WARM_STEP: u64 = 8;
const MEASURE: u64 = 50_000;

/// Delay between two status polls of one job.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// The client waits a seeded time below this between a result and its
/// next submission. The daemon accepts connections on a 10 ms tick; a
/// client that submits right after its last answer stays in step with
/// that tick, every latency then lands near a multiple of 10 ms, and the
/// median jumps between those steps from run to run. A think time spread
/// over one tick takes the client out of step.
const THINK_MAX_US: u64 = 10_000;

/// The config and workload pairs new specs draw from. The
/// multiprogrammed mix needs one core per workload and runs on `cmp4`
/// only.
const PAIRS: [(&str, &str); 9] = [
    ("single_core", "db"),
    ("single_core", "tpcw"),
    ("single_core", "japp"),
    ("single_core", "web"),
    ("cmp4", "db"),
    ("cmp4", "tpcw"),
    ("cmp4", "japp"),
    ("cmp4", "web"),
    ("cmp4", "mixed"),
];

/// The prefetcher forms new specs draw from, `zoo:` included.
const PREFETCHERS: [&str; 5] = ["none", "nl_tagged", "nnl:4", "disc:8192:4", "zoo:nl+disc"];
const POLICIES: [&str; 2] = ["install_both", "bypass"];

/// Each block of this many submissions holds [`REPEATS_PER_BLOCK`]
/// repeats of earlier specs, in seeded order: about half, but not half,
/// which would put the median job on the step between cache hits (under
/// 10 ms) and simulated jobs (20 ms and up).
const BLOCK: usize = 5;
const REPEATS_PER_BLOCK: usize = 2;

/// SplitMix64: the corpus generator's random source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One corpus entry: the JSON body a client submits and its lowered spec.
#[derive(Clone)]
struct Entry {
    json: Arc<str>,
    spec: Arc<RunSpec>,
}

/// A new spec's config, workload, prefetcher and policy.
type Shape = (&'static str, &'static str, &'static str, &'static str);

/// The seeded job corpus, drawn in order by the client.
///
/// Repeats and engines come from shuffled decks rather than independent
/// draws, so every repetition submits the same mix — each deck entry once
/// per deck — and only the order and the windows change with the seed.
struct Corpus {
    rng: Rng,
    distinct: Vec<Entry>,
    repeats: Vec<bool>,
    engines: Vec<Shape>,
}

impl Corpus {
    fn new(seed: u64) -> Corpus {
        Corpus {
            rng: Rng(seed ^ 0x5E27_E000),
            distinct: Vec::new(),
            repeats: Vec::new(),
            engines: Vec::new(),
        }
    }

    /// Pops the next card, refilling `deck` with a shuffled `full` first.
    fn draw<T: Copy>(rng: &mut Rng, deck: &mut Vec<T>, full: impl FnOnce() -> Vec<T>) -> T {
        if deck.is_empty() {
            *deck = full();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below(i + 1));
            }
        }
        deck.pop().expect("deck refilled")
    }

    fn next(&mut self) -> Entry {
        let repeat = Self::draw(&mut self.rng, &mut self.repeats, || {
            (0..BLOCK).map(|i| i < REPEATS_PER_BLOCK).collect()
        });
        // The client waits for every answer before it draws again, so
        // each earlier spec is settled and a repeat is a cache hit.
        if repeat && !self.distinct.is_empty() {
            let i = self.rng.below(self.distinct.len());
            return self.distinct[i].clone();
        }
        let shape = Self::draw(&mut self.rng, &mut self.engines, engine_deck);
        let warm = WARM_BASE + WARM_STEP * self.distinct.len() as u64;
        let entry = Entry::new(shape, warm);
        self.distinct.push(entry.clone());
        entry
    }
}

/// Every config-workload pair with every prefetcher, the install policy
/// alternating along the list: each pair and each prefetcher meets both
/// policies. A job's cost depends mostly on its config, workload and
/// prefetcher, and a fixed policy per triple keeps a repetition's mix the
/// same for every seed.
fn engine_deck() -> Vec<Shape> {
    PAIRS
        .iter()
        .flat_map(|&(config, workload)| PREFETCHERS.map(|p| (config, workload, p)))
        .enumerate()
        .map(|(i, (config, workload, prefetcher))| {
            (config, workload, prefetcher, POLICIES[i % POLICIES.len()])
        })
        .collect()
}

impl Entry {
    /// A one-run job of `shape` with `warm` + [`MEASURE`].
    fn new((config, workload, prefetcher, policy): Shape, warm: u64) -> Entry {
        let json = format!(
            "{{\"v\":2,\"runs\":[{{\"config\":\"{config}\",\"workload\":\"{workload}\",\
             \"prefetcher\":\"{prefetcher}\",\"policy\":\"{policy}\",\
             \"warm\":{warm},\"measure\":{MEASURE}}}]}}"
        );
        let spec = JobSpec::from_json(&json)
            .and_then(|job| job.to_run_specs())
            .expect("corpus specs are valid")
            .remove(0);
        Entry {
            json: json.into(),
            spec: Arc::new(spec),
        }
    }
}

/// What a client observed for one job.
struct JobSample {
    latency_ms: f64,
    submit_ms: f64,
    /// Ack → first poll that no longer saw `queued`; new jobs only.
    queue_wait_ms: Option<f64>,
    /// That poll → terminal; new jobs only.
    exec_ms: Option<f64>,
    polls: u64,
    /// Answered without simulating (cache hit or coalesced).
    deduped: bool,
    /// Simulated instructions the daemon executed for this job.
    executed_instrs: u64,
}

/// One job's outcome: a sample, or the reason it failed.
type JobOutcome = Result<JobSample, String>;

fn parse(body: &str) -> Result<Json, String> {
    json::parse(body).map_err(|e| format!("bad JSON `{body}`: {e}"))
}

fn json_field(body: &str, field: &str) -> Result<String, String> {
    parse(body)?
        .get(field)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("response lacks `{field}`: {body}"))
}

fn get(addr: &str, path: &str) -> Result<String, String> {
    let response = client::request(addr, "GET", path, &[], None)?;
    if response.status != 200 {
        return Err(format!(
            "GET {path}: HTTP {} {}",
            response.status, response.body
        ));
    }
    Ok(response.body)
}

/// Submits one entry and follows it to its checked result.
fn one_job(
    addr: &str,
    client_id: &str,
    entry: &Entry,
    results: &mut HashMap<String, String>,
    spans: Option<(&Recorder, u64)>,
) -> JobOutcome {
    let job_span = spans.map(|(rec, thread)| rec.span("serve.job", None, thread));
    let child =
        |name| spans.map(|(rec, thread)| rec.span(name, job_span.as_ref().map(|s| s.id()), thread));
    let t0 = Instant::now();
    let submit_span = child("serve.submit");
    let response = client::request(
        addr,
        "POST",
        "/v1/jobs",
        &[
            ("Content-Type", "application/json"),
            ("X-Client-Id", client_id),
        ],
        Some(&entry.json),
    )?;
    drop(submit_span);
    let acked = Instant::now();
    let submit_ms = (acked - t0).as_secs_f64() * 1e3;
    if response.status != 200 && response.status != 202 {
        return Err(format!(
            "refused: HTTP {} {}",
            response.status, response.body
        ));
    }
    let id = json_field(&response.body, "id")?;
    let mut state = json_field(&response.body, "state")?;
    let deduped = response.status == 200;
    let mut polls = 0u64;
    let mut started: Option<Instant> = None;
    let poll_span = child("serve.poll");
    while state != "done" && state != "failed" {
        std::thread::sleep(POLL_INTERVAL);
        state = json_field(&get(addr, &format!("/v1/jobs/{id}"))?, "state")?;
        polls += 1;
        if state != "queued" && started.is_none() {
            started = Some(Instant::now());
        }
    }
    drop(poll_span);
    let done = Instant::now();
    let latency_ms = (done - t0).as_secs_f64() * 1e3;
    let result_span = child("serve.result");
    let body = get(addr, &format!("/v1/jobs/{id}/result"))?;
    drop(result_span);
    if state != "done" {
        return Err(format!("job {id} failed: {body}"));
    }
    check_result(entry, &body, results)?;
    let new = !deduped;
    Ok(JobSample {
        latency_ms,
        submit_ms,
        queue_wait_ms: started
            .filter(|_| new)
            .map(|s| (s - acked).as_secs_f64() * 1e3),
        exec_ms: started
            .filter(|_| new)
            .map(|s| (done - s).as_secs_f64() * 1e3),
        polls,
        deduped,
        executed_instrs: if new {
            (entry.spec.lengths.warm + entry.spec.lengths.measure)
                * u64::from(entry.spec.config.n_cores)
        } else {
            0
        },
    })
}

/// Checks a job result: one run, `ok`, the submitted spec's key, a
/// summary with the expected instruction count, and the same summary as
/// every earlier answer for that key.
fn check_result(
    entry: &Entry,
    body: &str,
    results: &mut HashMap<String, String>,
) -> Result<(), String> {
    let json = parse(body)?;
    let runs = json
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("result lacks `results`: {body}"))?;
    let [run] = runs else {
        return Err(format!("expected one run result: {body}"));
    };
    let field = |name| run.get(name).and_then(|v| v.as_str()).unwrap_or("");
    let key = entry.spec.cache_key();
    if field("key") != key || !matches!(run.get("ok"), Some(Json::Bool(true))) {
        return Err(format!("run result does not match its spec: {body}"));
    }
    let tsv = field("tsv").to_string();
    let summary = Summary::from_tsv(&tsv).ok_or_else(|| format!("bad summary: {tsv}"))?;
    if let Some(e) = check::instruction_count(&entry.spec, &summary) {
        return Err(e);
    }
    match results.get(&key) {
        Some(earlier) if *earlier != tsv => Err(format!(
            "{}: answers differ between jobs",
            entry.spec.label()
        )),
        Some(_) => Ok(()),
        None => {
            results.insert(key, tsv);
            Ok(())
        }
    }
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        dir: dir.join("state"),
        cache_dir: dir.join("cache"),
        trace_dir: Some(dir.join("traces")),
        telemetry_root: None,
        workers: 1,
        job_fanout: 1,
        max_queue: 1024,
        // Far above the offered load: a closed-loop client must never be
        // rate-limited.
        rate_capacity: 1e9,
        rate_refill: 1e9,
        sync_journal: true,
    }
}

/// Boots a daemon on a fresh directory and follows one job through it;
/// returns the daemon with its set-up time.
///
/// Set-up ends at the first answered job, not when `start` returns: a
/// script can use the daemon only then, and the bare boot (well under a
/// millisecond, most of it the journal's fsync) moves with the disk by a
/// factor of two from minute to minute. The job is a small single-core
/// run outside the corpus, so its simulation keeps the figure steady.
fn boot(dir: &Path) -> Result<(ServerHandle, f64), String> {
    let t = Instant::now();
    let service = Service::open(config(dir))?;
    let handle = start(service, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let first = Entry::new(("single_core", "db", "none", "install_both"), SETUP_WARM);
    let answered = one_job(
        &handle.addr.to_string(),
        "perfbench-setup",
        &first,
        &mut HashMap::new(),
        None,
    );
    let setup_s = t.elapsed().as_secs_f64();
    match answered {
        Ok(_) => Ok((handle, setup_s)),
        Err(e) => {
            handle.join();
            Err(format!("set-up job: {e}"))
        }
    }
}

/// One timed phase on a fresh daemon: every outcome, the wall time, the
/// daemon's answers by cache key, and the [`REP_SPECS`] new specs drawn.
struct Phase {
    setups: Vec<f64>,
    wall_s: f64,
    outcomes: Vec<JobOutcome>,
    results: HashMap<String, String>,
    distinct: Vec<Entry>,
    cache_dir: std::path::PathBuf,
    cache_hits: u64,
    cache_misses: u64,
}

fn phase(seed: u64, dir: &Path, rec: Option<&Recorder>) -> Result<Phase, String> {
    let mut setups = Vec::new();
    let mut handle = None;
    for i in 0..SETUPS {
        let d = dir.join(format!("boot{i}"));
        let (h, s) = boot(&d)?;
        setups.push(s);
        if i + 1 < SETUPS {
            h.join();
            let _ = fs::remove_dir_all(&d);
        } else {
            handle = Some(h);
        }
    }
    let handle = handle.expect("at least one set-up");
    let addr = handle.addr.to_string();
    let mut corpus = Corpus::new(seed);
    let mut results = HashMap::new();
    let probes = &ipsim_harness::obs::obs();
    let (hits0, misses0) = (probes.cache_hit.get(), probes.cache_miss.get());
    let mut think = Rng(seed ^ 0x7E1A_0000);
    let mut outcomes = Vec::new();
    let started = Instant::now();
    while corpus.distinct.len() < REP_SPECS {
        std::thread::sleep(Duration::from_micros(think.next() % THINK_MAX_US));
        let entry = corpus.next();
        let spans = rec.map(|r| (r, 1));
        outcomes.push(one_job(&addr, "perfbench", &entry, &mut results, spans));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let (hits, misses) = (probes.cache_hit.get(), probes.cache_miss.get());
    let cache_dir = config(&dir.join(format!("boot{}", SETUPS - 1))).cache_dir;
    handle.join();
    Ok(Phase {
        setups,
        wall_s,
        outcomes,
        results,
        distinct: corpus.distinct,
        cache_dir,
        cache_hits: hits - hits0,
        cache_misses: misses - misses0,
    })
}

/// Keeps every thread on glibc's main malloc arena.
///
/// The daemon serves each connection on a thread of its own, and glibc
/// hands new threads further arenas; which arenas a run's simulations
/// land in moved the peak resident set of otherwise identical runs
/// between 55 and 120 MiB. With one arena the peak is that of the
/// program's allocations (56–60 MiB over the same runs).
fn one_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: mallopt only changes allocator tuning; it is called
        // before this workload starts any thread.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Counts every job, re-executes one spec in batch against the daemon's
/// answer, and returns the digest over the distinct specs for
/// [`check::digests`].
fn check_phase(phase: &Phase, report: &mut Report) -> u64 {
    for outcome in &phase.outcomes {
        report.op(outcome.as_ref().err().cloned());
    }
    let mut answers = BTreeMap::new();
    for entry in &phase.distinct {
        match phase.results.get(&entry.spec.cache_key()) {
            Some(tsv) => {
                answers.insert(entry.spec.cache_key(), tsv.clone());
            }
            None => report.fail(format!("{}: no daemon answer", entry.spec.label())),
        }
    }
    // The first cmp4 spec (or the first spec) re-executed in batch.
    if let Some(entry) = phase
        .distinct
        .iter()
        .find(|e| e.spec.config.n_cores > 1)
        .or(phase.distinct.first())
    {
        let batch = entry.spec.execute().to_tsv();
        report.op(match phase.results.get(&entry.spec.cache_key()) {
            Some(tsv) if *tsv == batch => None,
            _ => Some(format!(
                "{}: daemon and batch results differ",
                entry.spec.label()
            )),
        });
    }
    check::digest_tsv(&answers)
}

fn samples(phase: &Phase) -> Vec<&JobSample> {
    phase
        .outcomes
        .iter()
        .filter_map(|o| o.as_ref().ok())
        .collect()
}

fn jobs_per_s(phase: &Phase) -> f64 {
    samples(phase).len() as f64 / phase.wall_s
}

pub fn run(opts: &Options, scratch: &Path, report: &mut Report) {
    one_malloc_arena();
    let seconds = opts.seconds as f64;
    if !opts.trace {
        let started = Instant::now();
        let (mut phases, mut digests) = (Vec::new(), Vec::new());
        while phases.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
            let dir = scratch.join(format!("rep{}", phases.len()));
            match phase(opts.seed, &dir, None) {
                Ok(phase) => {
                    digests.push(check_phase(&phase, report));
                    phases.push(phase);
                }
                Err(e) => {
                    report.op(Some(e));
                    break;
                }
            }
            let _ = fs::remove_dir_all(&dir);
        }
        check::digests(Workload::ServeMixed, opts.seed, &digests, report);
        let wall: f64 = phases.iter().map(|p| p.wall_s).sum();
        let ok: Vec<&JobSample> = phases.iter().flat_map(samples).collect();
        let instrs: u64 = ok.iter().map(|s| s.executed_instrs).sum();
        let setups: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.setups.iter().copied())
            .collect();
        let latencies = report::sorted(ok.iter().map(|s| s.latency_ms).collect());
        report.metric(
            "sim_mips",
            "Minstr/s",
            instrs as f64 / 1e6 / wall,
            phases.len(),
        );
        report.metric("setup_s", "s", median(&setups), setups.len());
        report.metric("jobs_per_s", "1/s", ok.len() as f64 / wall, ok.len());
        report.percentile("job_p50_ms", "ms", &latencies, 50.0);
        report.percentile("job_p95_ms", "ms", &latencies, 95.0);
        return;
    }

    // Traced: an untraced reference phase, then the traced phase, each
    // on its own fresh daemon.
    let rec = Recorder::new();
    let phases = phase(opts.seed, &scratch.join("plain"), None).and_then(|plain| {
        phase(opts.seed, &scratch.join("traced"), Some(&rec)).map(|traced| (plain, traced))
    });
    let (plain, traced) = match phases {
        Ok(p) => p,
        Err(e) => return report.fail(e),
    };
    let digests = [check_phase(&plain, report), check_phase(&traced, report)];
    check::digests(Workload::ServeMixed, opts.seed, &digests, report);
    let ok = samples(&traced);
    let submits = report::sorted(ok.iter().map(|s| s.submit_ms).collect());
    report.metric(
        "serve.submit_ms_p50",
        "ms",
        report::percentile(&submits, 50.0).0,
        submits.len(),
    );
    report.percentile("serve.submit_ms_p95", "ms", &submits, 95.0);
    let waits: Vec<f64> = ok.iter().filter_map(|s| s.queue_wait_ms).collect();
    let execs: Vec<f64> = ok.iter().filter_map(|s| s.exec_ms).collect();
    report.metric("serve.queue_wait_ms", "ms", median(&waits), waits.len());
    report.metric("serve.exec_ms", "ms", median(&execs), execs.len());
    let deduped = ok.iter().filter(|s| s.deduped).count();
    report.metric(
        "serve.dedup_share",
        "fraction",
        deduped as f64 / traced.outcomes.len().max(1) as f64,
        traced.outcomes.len(),
    );
    let polls: u64 = ok.iter().map(|s| s.polls).sum();
    report.metric(
        "serve.polls_per_job",
        "count",
        polls as f64 / ok.len().max(1) as f64,
        ok.len(),
    );
    let refused = traced
        .outcomes
        .iter()
        .filter(|o| o.as_ref().is_err_and(|e| e.starts_with("refused")))
        .count();
    report.metric(
        "serve.refused",
        "count",
        refused as f64,
        traced.outcomes.len(),
    );
    let probes = traced.cache_hits + traced.cache_misses;
    report.metric(
        "harness.cache_hit_ratio",
        "fraction",
        traced.cache_hits as f64 / probes.max(1) as f64,
        probes as usize,
    );
    layer_probes(&traced, &scratch.join("probe"), &rec, report);
    report.metric(
        "bench.trace_overhead_pct",
        "%",
        (jobs_per_s(&plain) / jobs_per_s(&traced) - 1.0) * 100.0,
        1,
    );
    crate::write_trace(&rec, Workload::ServeMixed, report);
}

/// Times the run cache, system build and program synthesis on the specs
/// the traced phase executed, outside the daemon.
fn layer_probes(traced: &Phase, dir: &Path, rec: &Recorder, report: &mut Report) {
    const PROBES: usize = 32;
    let cache = RunCache::at(&traced.cache_dir);
    let scratch_cache = RunCache::at(dir);
    let (mut lookups, mut stores, mut builds, mut synths) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for entry in traced.distinct.iter().take(PROBES) {
        let spec = &*entry.spec;
        let t = Instant::now();
        let hit = {
            let _s = rec.span("harness.cache_lookup", None, 0);
            cache.lookup(spec)
        };
        lookups.push(t.elapsed().as_secs_f64() * 1e6);
        let Some(summary) = hit else {
            report.fail(format!(
                "{}: executed run missing from the cache",
                spec.label()
            ));
            continue;
        };
        let t = Instant::now();
        {
            let _s = rec.span("harness.cache_store", None, 0);
            scratch_cache.store(spec, &summary);
        }
        stores.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        {
            let _s = rec.span("cpu.build", None, 0);
            std::hint::black_box(spec.build_system());
        }
        builds.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        {
            let _s = rec.span("trace.synth", None, 0);
            std::hint::black_box(spec.workloads.programs(spec.config.n_cores));
        }
        synths.push(t.elapsed().as_secs_f64());
    }
    let _ = fs::remove_dir_all(dir);
    report.metric(
        "harness.cache_lookup_us",
        "us",
        median(&lookups),
        lookups.len(),
    );
    report.metric(
        "harness.cache_store_us",
        "us",
        median(&stores),
        stores.len(),
    );
    report.metric("cpu.build_ms", "ms", median(&builds), builds.len());
    report.metric("trace.synth_s", "s", median(&synths), synths.len());
}
