//! `sweep_report`: aggregate a sweep's on-disk outputs into one report.
//!
//! Reads the v5 runlog, the run cache and the telemetry artifacts —
//! nothing is re-simulated — and prints totals, aggregate sim-MIPS, cache
//! hit/miss economics and a per-workload/per-scheme
//! accuracy-coverage-timeliness table. See `ipsim_experiments::report`
//! for the section definitions.

use std::path::PathBuf;
use std::process::exit;

use ipsim_experiments::report::{render_report, ReportOptions};

const USAGE: &str = "\
usage: sweep_report [--runlog PATH] [--cache DIR] [--telemetry DIR] [--stable]

  --runlog PATH     runlog to aggregate (default: $IPSIM_RUNLOG or
                    results/runlog.tsv)
  --cache DIR       run cache with metric summaries (default:
                    $IPSIM_CACHE_DIR or results/cache)
  --telemetry DIR   telemetry artifact root for the timeliness columns
                    (default: $IPSIM_TELEMETRY_DIR or results/telemetry);
                    missing artifacts print `-`, never fail
  --stable          machine-stable view only: no timestamps, wall times or
                    stream sources — byte-identical for any worker count
                    or invocation order that produced the sweep
  --help            this text
";

fn main() {
    let mut opts = ReportOptions {
        runlog: ipsim_harness::runlog::runlog_path_from_env(),
        cache_dir: ipsim_harness::RunCache::from_env().dir().to_path_buf(),
        telemetry_dir: match std::env::var_os(ipsim_harness::telemetry::TELEMETRY_DIR_ENV) {
            Some(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => PathBuf::from(ipsim_harness::telemetry::DEFAULT_TELEMETRY_DIR),
        },
        stable: false,
    };
    let mut args = ipsim_experiments::tool_args(USAGE).into_iter();
    while let Some(arg) = args.next() {
        let mut path_flag = |name: &str| -> PathBuf {
            match args.next() {
                Some(v) => PathBuf::from(v),
                None => {
                    eprintln!("{name} needs a value\n\n{USAGE}");
                    exit(2);
                }
            }
        };
        match arg.as_str() {
            "--stable" => opts.stable = true,
            "--runlog" => opts.runlog = path_flag("--runlog"),
            "--cache" => opts.cache_dir = path_flag("--cache"),
            "--telemetry" => opts.telemetry_dir = path_flag("--telemetry"),
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                exit(2);
            }
        }
    }

    match render_report(&opts) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("sweep_report: {e}");
            exit(1);
        }
    }
}
