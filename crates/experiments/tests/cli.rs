//! Pins the command-line contract shared by every binary in this crate:
//! `--help` prints usage to stdout and exits 0; an unknown flag prints
//! usage to stderr and exits 2. Scripts and CI jobs rely on that split to
//! tell "you called it wrong" from "the experiment failed" (exit 1).

use std::process::Command;

/// Every binary this crate builds, by `CARGO_BIN_EXE_*` path.
const BINS: &[(&str, &str)] = &[
    ("all_figures", env!("CARGO_BIN_EXE_all_figures")),
    ("calibrate", env!("CARGO_BIN_EXE_calibrate")),
    ("fig01", env!("CARGO_BIN_EXE_fig01_l1_miss_rates")),
    ("fig02", env!("CARGO_BIN_EXE_fig02_l2_miss_rates")),
    ("fig03", env!("CARGO_BIN_EXE_fig03_miss_breakdown")),
    ("fig04", env!("CARGO_BIN_EXE_fig04_limit_study")),
    ("fig05", env!("CARGO_BIN_EXE_fig05_prefetch_miss_rates")),
    ("fig06", env!("CARGO_BIN_EXE_fig06_prefetch_speedup")),
    ("fig07", env!("CARGO_BIN_EXE_fig07_l2_data_pollution")),
    ("fig08", env!("CARGO_BIN_EXE_fig08_bypass_speedup")),
    ("fig09", env!("CARGO_BIN_EXE_fig09_accuracy_2nl")),
    ("fig10", env!("CARGO_BIN_EXE_fig10_table_size")),
    ("fig11", env!("CARGO_BIN_EXE_fig11_ablations")),
    ("fig12", env!("CARGO_BIN_EXE_fig12_bandwidth")),
    ("fig13", env!("CARGO_BIN_EXE_fig13_latency")),
    ("ops_report", env!("CARGO_BIN_EXE_ops_report")),
    ("pf_check", env!("CARGO_BIN_EXE_pf_check")),
    ("pf_detail", env!("CARGO_BIN_EXE_pf_detail")),
    ("sim_report", env!("CARGO_BIN_EXE_sim_report")),
    ("sweep_report", env!("CARGO_BIN_EXE_sweep_report")),
    ("sweep_zipf", env!("CARGO_BIN_EXE_sweep_zipf")),
    ("telemetry_check", env!("CARGO_BIN_EXE_telemetry_check")),
    ("trace_dump", env!("CARGO_BIN_EXE_trace_dump")),
    ("trace_stats", env!("CARGO_BIN_EXE_trace_stats")),
];

#[test]
fn every_binary_prints_usage_on_help_and_exits_zero() {
    for (name, path) in BINS {
        let out = Command::new(path)
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("{name}: could not run: {e}"));
        assert_eq!(
            out.status.code(),
            Some(0),
            "{name} --help exited {:?}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("usage"),
            "{name} --help printed no usage text:\n{stdout}"
        );
    }
}

#[test]
fn prefetcher_selectors_reject_unknown_schemes_with_exit_two() {
    for name in ["pf_check", "pf_detail"] {
        let path = BINS.iter().find(|(n, _)| *n == name).unwrap().1;
        for bad in ["warp", "nl:mode=9", ""] {
            let out = Command::new(path)
                .args(["--prefetcher", bad])
                .output()
                .unwrap_or_else(|e| panic!("{name}: could not run: {e}"));
            assert_eq!(
                out.status.code(),
                Some(2),
                "{name} --prefetcher {bad:?} should exit 2, got {:?}",
                out.status.code()
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("usage"),
                "{name} rejected the spec without printing usage:\n{stderr}"
            );
        }
    }
}

/// Flags no binary accepts: a made-up one, and the process-sharding flag
/// that has been removed, so a stale script fails loudly instead of
/// silently running a different sweep.
const UNKNOWN_FLAGS: &[&[&str]] = &[&["--definitely-not-a-real-flag"], &["--shards", "2"]];

#[test]
fn every_binary_rejects_unknown_flags_with_exit_two() {
    for (name, path) in BINS {
        for args in UNKNOWN_FLAGS {
            let out = Command::new(path)
                .args(*args)
                .output()
                .unwrap_or_else(|e| panic!("{name}: could not run: {e}"));
            assert_eq!(
                out.status.code(),
                Some(2),
                "{name} accepted {args:?} (exit {:?})\nstdout: {}\nstderr: {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("usage"),
                "{name} rejected {args:?} without printing usage:\n{stderr}"
            );
        }
    }
}
