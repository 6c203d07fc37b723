//! End-to-end tests over real sockets: submit → poll → result
//! byte-identity with the batch CLI, dedup/coalescing, backpressure,
//! rate limiting, and drain → restart → recovery.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ipsim_serve::client::{self, Response};
use ipsim_serve::{start, ServeConfig, ServerHandle, Service};
use ipsim_telemetry::json::Json;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipsim-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(root: &Path, workers: usize) -> ServeConfig {
    ServeConfig {
        dir: root.join("serve"),
        cache_dir: root.join("cache"),
        trace_dir: None,
        telemetry_root: None,
        workers,
        job_fanout: 1,
        max_queue: 16,
        rate_capacity: 1e9,
        rate_refill: 1e9,
        sync_journal: false,
    }
}

fn boot(config: ServeConfig) -> ServerHandle {
    let service = Service::open(config).unwrap();
    start(service, "127.0.0.1:0").unwrap()
}

fn spec_json(workload: &str, prefetcher: &str) -> String {
    format!(
        "{{\"v\":1,\"runs\":[{{\"config\":\"single_core\",\"workload\":\"{workload}\",\
         \"prefetcher\":\"{prefetcher}\",\"policy\":\"install_both\",\
         \"warm\":2000,\"measure\":5000}}]}}"
    )
}

fn submit(addr: &str, spec: &str) -> Response {
    client::submit_json(addr, "e2e", spec).unwrap()
}

fn field<'a>(json: &'a Json, name: &str) -> &'a str {
    json.get(name).and_then(Json::as_str).unwrap_or("")
}

#[test]
fn http_job_matches_batch_cli_byte_for_byte() {
    let root = tmp("bytes");
    let handle = boot(config(&root, 1));
    let addr = handle.addr.to_string();

    // Liveness first.
    let health = client::request(&addr, "GET", "/v1/healthz", &[], None).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\":true"));

    // Submit, poll to done, fetch the result.
    let accepted = submit(&addr, &spec_json("db", "nl_tagged"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let id = field(&accepted.json().unwrap(), "id").to_string();
    let state = client::wait_terminal(&addr, &id, Duration::from_secs(120)).unwrap();
    assert_eq!(state, "done");

    let result =
        client::request(&addr, "GET", &format!("/v1/jobs/{id}/result"), &[], None).unwrap();
    assert_eq!(result.status, 200, "{}", result.body);
    let result = result.json().unwrap();
    let runs = result.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(runs.len(), 1);
    assert!(matches!(runs[0].get("ok"), Some(Json::Bool(true))));

    // The served TSV is byte-identical to executing the same spec the way
    // the batch CLI does.
    let direct = ipsim_harness::wire::JobSpec::from_json(&spec_json("db", "nl_tagged"))
        .unwrap()
        .to_run_specs()
        .unwrap()[0]
        .execute();
    assert_eq!(field(&runs[0], "tsv"), direct.to_tsv());

    // The shell-friendly rendering carries the same line.
    let tsv = client::request(
        &addr,
        "GET",
        &format!("/v1/jobs/{id}/result?format=tsv"),
        &[],
        None,
    )
    .unwrap();
    assert_eq!(tsv.status, 200);
    assert!(tsv.body.starts_with("# ipsim-job-result v1\n"));
    assert!(tsv.body.contains(&format!("\tok\t{}\n", direct.to_tsv())));

    // An identical submission is served from the run cache, instantly.
    let dup = submit(&addr, &spec_json("db", "nl_tagged"));
    assert_eq!(dup.status, 200, "{}", dup.body);
    let dup = dup.json().unwrap();
    assert_eq!(field(&dup, "dedup"), "cache");
    assert_eq!(field(&dup, "state"), "done");

    // Unknown jobs and endpoints answer 404.
    let missing = client::request(&addr, "GET", "/v1/jobs/j-999", &[], None).unwrap();
    assert_eq!(missing.status, 404);
    let nowhere = client::request(&addr, "GET", "/v2/nope", &[], None).unwrap();
    assert_eq!(nowhere.status, 404);

    handle.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// The acceptance bar for the prefetcher-zoo bake-off: the table built
/// from a batch-style local sweep and the table built from the *same*
/// specs submitted as one daemon job must match byte for byte — both
/// sides render from their own on-disk telemetry artifacts plus the
/// per-run summaries, never from shared in-process state.
#[test]
fn zoo_bakeoff_job_matches_the_batch_pipeline_byte_for_byte() {
    use ipsim_experiments::bakeoff::{bakeoff_specs, render_bakeoff};
    use ipsim_harness::wire::{JobSpec, WireRun};
    use ipsim_harness::{RunLengths, Summary, TelemetrySink};
    use ipsim_telemetry::TelemetryConfig;

    let root = tmp("bakeoff");
    let specs = bakeoff_specs(RunLengths {
        warm: 2_000,
        measure: 6_000,
    });

    // Batch side: execute every spec locally, staging artifacts the same
    // way the figure harness does.
    let batch_sink = TelemetrySink::at(root.join("batch-telem"), TelemetryConfig::default());
    let batch: Vec<Summary> = specs
        .iter()
        .map(|spec| {
            let mut system = spec.build_system();
            system.enable_telemetry(batch_sink.config().clone());
            let metrics =
                system.run_workload(&spec.workloads, spec.lengths.warm, spec.lengths.measure);
            let run = system.take_telemetry().expect("telemetry enabled");
            batch_sink.write(spec, &run).expect("artifact write");
            Summary::from_metrics(&metrics)
        })
        .collect();
    let mut batch_it = batch.into_iter();
    let batch_table = render_bakeoff(&batch_sink, &specs, move |_| batch_it.next().unwrap())
        .expect("batch bake-off renders");

    // Serve side: the whole sweep as one job, telemetry staged by the
    // daemon's own sink.
    let mut serve_config = config(&root, 2);
    serve_config.telemetry_root = Some(root.join("serve-telem"));
    let handle = boot(serve_config);
    let addr = handle.addr.to_string();

    let job = JobSpec::new(
        specs
            .iter()
            .map(|spec| WireRun::from_run_spec(spec).expect("bake-off specs are wire-expressible"))
            .collect(),
    )
    .unwrap();
    let accepted = submit(&addr, &job.to_json());
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let id = field(&accepted.json().unwrap(), "id").to_string();
    let state = client::wait_terminal(&addr, &id, Duration::from_secs(300)).unwrap();
    assert_eq!(state, "done");

    let result =
        client::request(&addr, "GET", &format!("/v1/jobs/{id}/result"), &[], None).unwrap();
    assert_eq!(result.status, 200, "{}", result.body);
    let result = result.json().unwrap();
    let runs = result.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(runs.len(), specs.len());
    let served: Vec<Summary> = runs
        .iter()
        .map(|run| {
            assert!(matches!(run.get("ok"), Some(Json::Bool(true))));
            Summary::from_tsv(field(run, "tsv")).expect("served summary parses")
        })
        .collect();

    let serve_sink = TelemetrySink::at(root.join("serve-telem"), TelemetryConfig::default());
    let mut served_it = served.into_iter();
    let serve_table = render_bakeoff(&serve_sink, &specs, move |_| served_it.next().unwrap())
        .expect("served bake-off renders");
    assert_eq!(
        batch_table, serve_table,
        "bake-off tables diverge between batch and daemon pipelines"
    );

    handle.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// `job_fanout` chunks a job's runs with the sweep shard planner and fans
/// each chunk across a pool; the response must still list results in
/// submitted run order with byte-identical TSV lines.
#[test]
fn job_fanout_preserves_result_order_and_bytes() {
    let multi_spec = "{\"v\":1,\"runs\":[\
         {\"config\":\"single_core\",\"workload\":\"db\",\"prefetcher\":\"none\",\
          \"policy\":\"install_both\",\"warm\":2000,\"measure\":5000},\
         {\"config\":\"single_core\",\"workload\":\"web\",\"prefetcher\":\"nl_tagged\",\
          \"policy\":\"install_both\",\"warm\":2000,\"measure\":5000},\
         {\"config\":\"single_core\",\"workload\":\"japp\",\"prefetcher\":\"none\",\
          \"policy\":\"install_both\",\"warm\":2000,\"measure\":5000},\
         {\"config\":\"single_core\",\"workload\":\"tpcw\",\"prefetcher\":\"nl_always\",\
          \"policy\":\"install_both\",\"warm\":2000,\"measure\":5000},\
         {\"config\":\"single_core\",\"workload\":\"mixed\",\"prefetcher\":\"none\",\
          \"policy\":\"install_both\",\"warm\":2000,\"measure\":5000}]}";

    let run_job = |tag: &str, fanout: usize| -> (Vec<String>, PathBuf) {
        let root = tmp(tag);
        let mut cfg = config(&root, 1);
        cfg.job_fanout = fanout;
        let handle = boot(cfg);
        let addr = handle.addr.to_string();
        let accepted = submit(&addr, multi_spec);
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        let id = field(&accepted.json().unwrap(), "id").to_string();
        let state = client::wait_terminal(&addr, &id, Duration::from_secs(300)).unwrap();
        assert_eq!(state, "done");
        let result =
            client::request(&addr, "GET", &format!("/v1/jobs/{id}/result"), &[], None).unwrap();
        assert_eq!(result.status, 200, "{}", result.body);
        let result = result.json().unwrap();
        let runs = result.get("results").and_then(Json::as_arr).unwrap();
        let rows: Vec<String> = runs
            .iter()
            .map(|run| {
                assert!(matches!(run.get("ok"), Some(Json::Bool(true))));
                format!("{}\t{}", field(run, "label"), field(run, "tsv"))
            })
            .collect();
        handle.join();
        (rows, root)
    };

    let (serial, root_a) = run_job("fanout-1", 1);
    let (fanned, root_b) = run_job("fanout-3", 3);
    assert_eq!(serial.len(), 5);
    assert_eq!(serial, fanned, "fan-out changed result order or bytes");
    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

#[test]
fn tsv_submission_and_inflight_coalescing() {
    let root = tmp("coalesce");
    // No workers: jobs stay queued, so coalescing is deterministic.
    let handle = boot(config(&root, 0));
    let addr = handle.addr.to_string();

    let body = format!(
        "{}\nsingle_core\tweb\tnl_tagged\tinstall_both\t-\t2000\t5000\n",
        ipsim_harness::wire::TSV_HEADER
    );
    let first = client::request(
        &addr,
        "POST",
        "/v1/jobs",
        &[("Content-Type", "text/tab-separated-values")],
        Some(&body),
    )
    .unwrap();
    assert_eq!(first.status, 202, "{}", first.body);
    let first_id = field(&first.json().unwrap(), "id").to_string();

    // The same spec as JSON coalesces onto the queued job.
    let second = submit(&addr, &spec_json("web", "nl_tagged"));
    assert_eq!(second.status, 200, "{}", second.body);
    let second = second.json().unwrap();
    assert_eq!(field(&second, "id"), first_id);
    assert_eq!(field(&second, "dedup"), "inflight");

    // Progress endpoint shows the queued job.
    let status = client::request(&addr, "GET", &format!("/v1/jobs/{first_id}"), &[], None).unwrap();
    assert_eq!(status.status, 200);
    assert_eq!(field(&status.json().unwrap(), "state"), "queued");

    // Its result is not available yet: 409, not a hang or an empty 200.
    let early = client::request(
        &addr,
        "GET",
        &format!("/v1/jobs/{first_id}/result"),
        &[],
        None,
    )
    .unwrap();
    assert_eq!(early.status, 409);

    // A malformed spec is rejected at submit time.
    let bad = submit(&addr, "{\"v\":1,\"runs\":[{\"bogus\":true}]}");
    assert_eq!(bad.status, 400);
    // So are engine sizes the simulator cannot build and windows beyond
    // the wire bound, in either encoding.
    for prefetcher in ["disc:1000:4", "disc:1073741824:4", "nnl:4000000000"] {
        let bad = submit(&addr, &spec_json("db", prefetcher));
        assert_eq!(bad.status, 400, "{prefetcher}: {}", bad.body);
    }
    let long = spec_json("db", "none").replace("\"warm\":2000", "\"warm\":1000000001");
    assert_eq!(submit(&addr, &long).status, 400);
    let long_tsv = format!(
        "{}\nsingle_core\tdb\tnone\tinstall_both\t-\t1000000001\t1\n",
        ipsim_harness::wire::TSV_HEADER
    );
    let bad = client::request(
        &addr,
        "POST",
        "/v1/jobs",
        &[("Content-Type", "text/tab-separated-values")],
        Some(&long_tsv),
    )
    .unwrap();
    assert_eq!(bad.status, 400, "{}", bad.body);

    handle.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn queue_overflow_answers_429() {
    let root = tmp("overflow");
    let mut config = config(&root, 0);
    config.max_queue = 2;
    let handle = boot(config);
    let addr = handle.addr.to_string();

    assert_eq!(submit(&addr, &spec_json("db", "none")).status, 202);
    assert_eq!(submit(&addr, &spec_json("web", "none")).status, 202);
    let full = submit(&addr, &spec_json("japp", "none"));
    assert_eq!(full.status, 429, "{}", full.body);
    assert!(full.body.contains("queue full"));

    let stats = client::request(&addr, "GET", "/v1/stats", &[], None).unwrap();
    assert!(
        stats.body.contains("\"rejected_queue_full\":1"),
        "{}",
        stats.body
    );
    assert!(stats.body.contains("\"queue_depth\":2"), "{}", stats.body);

    handle.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn rate_limiter_answers_429_per_client() {
    let root = tmp("rate");
    let mut config = config(&root, 0);
    config.rate_capacity = 2.0;
    config.rate_refill = 0.0;
    let handle = boot(config);
    let addr = handle.addr.to_string();

    let post =
        |client_id: &str, spec: &str| client::submit_json(&addr, client_id, spec).unwrap().status;
    assert_eq!(post("a", &spec_json("db", "none")), 202);
    assert_eq!(post("a", &spec_json("web", "none")), 202);
    let limited = client::submit_json(&addr, "a", &spec_json("japp", "none")).unwrap();
    assert_eq!(limited.status, 429, "{}", limited.body);
    assert!(limited.body.contains("rate limited"));
    // A different client is unaffected.
    assert_eq!(post("b", &spec_json("japp", "none")), 202);

    handle.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn drain_then_restart_recovers_and_finishes_queued_jobs() {
    let root = tmp("restart");

    // Boot with no workers, queue three jobs, then drain: the daemon
    // stops accepting but the queued jobs stay journaled.
    let first = boot(config(&root, 0));
    let addr = first.addr.to_string();
    let mut ids = Vec::new();
    for (workload, prefetcher) in [("db", "none"), ("web", "nl_tagged"), ("japp", "none")] {
        let accepted = submit(&addr, &spec_json(workload, prefetcher));
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        ids.push(field(&accepted.json().unwrap(), "id").to_string());
    }
    first.shutdown();
    let rejected = client::submit_json(&addr, "e2e", &spec_json("tpcw", "none"));
    if let Ok(response) = rejected {
        assert_eq!(response.status, 503, "{}", response.body);
    }
    first.join();

    // Restart over the same directory with workers: every recovered job
    // must reach a terminal state and keep its id.
    let second = boot(config(&root, 2));
    let addr = second.addr.to_string();
    assert_eq!(
        second
            .service()
            .stats
            .recovered
            .load(std::sync::atomic::Ordering::Relaxed),
        3
    );
    for id in &ids {
        let state = client::wait_terminal(&addr, id, Duration::from_secs(120)).unwrap();
        assert_eq!(state, "done", "recovered job {id}");
    }

    second.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn service_is_shared_between_http_and_in_process_views() {
    let root = tmp("shared");
    let handle = boot(config(&root, 0));
    let addr = handle.addr.to_string();
    let service: &Arc<Service> = handle.service();

    assert_eq!(submit(&addr, &spec_json("db", "none")).status, 202);
    assert_eq!(service.queue_len(), 1);
    assert_eq!(service.job_count(), 1);

    handle.join();
    let _ = std::fs::remove_dir_all(&root);
}
