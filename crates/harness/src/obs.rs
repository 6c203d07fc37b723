//! The harness's operational metric handles on the process-global
//! [`ipsim_obs`] registry.
//!
//! One lazily-initialised bundle of pre-registered handles: hot paths
//! (cache probes, per-run accounting) touch only `Arc`-backed atomics,
//! never the registry lock. Family naming follows the workspace
//! convention `ipsim_<subsystem>_<what>_<unit>`; the `ipsim_kernel_*`
//! families sit at the kernel boundary — one observation per executed
//! run — so sim-MIPS distributions (p50/p90/p99) are recoverable from a
//! metrics snapshot without re-parsing the runlog.

use std::sync::OnceLock;

use ipsim_obs::{Counter, Histogram};

/// Pre-registered harness metric handles. Obtain via [`obs`].
pub struct HarnessMetrics {
    /// `ipsim_harness_cache_probe_total{outcome="hit"}`.
    pub cache_hit: Counter,
    /// `ipsim_harness_cache_probe_total{outcome="miss"}`.
    pub cache_miss: Counter,
    /// `ipsim_harness_cache_probe_total{outcome="quarantined"}` — corrupt
    /// entries moved aside. Counted *in addition* to the miss the same
    /// probe reports.
    pub cache_quarantined: Counter,
    /// `ipsim_harness_run_wall_micros` — end-to-end wall time of one
    /// pool run (cache hits included; they are the sub-millisecond mode).
    pub run_wall: Histogram,
    /// `ipsim_kernel_sim_mips` — simulated instructions per kernel
    /// wall-second, one observation per executed (non-cached) run.
    pub sim_mips: Histogram,
    /// `ipsim_kernel_decode_mips` — trace decode throughput, one
    /// observation per executed run that decoded a stream.
    pub decode_mips: Histogram,
    /// `ipsim_harness_program_builds_total` — programs a trace store
    /// synthesised (at most one per workload and seed per store).
    pub program_builds: Counter,
    /// `ipsim_harness_program_reuses_total` — program requests a trace
    /// store served from an earlier build instead of re-synthesising.
    pub program_reuses: Counter,
}

/// The process-wide harness metrics, registered on first use.
pub fn obs() -> &'static HarnessMetrics {
    static OBS: OnceLock<HarnessMetrics> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = ipsim_obs::metrics();
        HarnessMetrics {
            cache_hit: m.counter("ipsim_harness_cache_probe_total", &[("outcome", "hit")]),
            cache_miss: m.counter("ipsim_harness_cache_probe_total", &[("outcome", "miss")]),
            cache_quarantined: m.counter(
                "ipsim_harness_cache_probe_total",
                &[("outcome", "quarantined")],
            ),
            run_wall: m.histogram("ipsim_harness_run_wall_micros", &[]),
            sim_mips: m.histogram("ipsim_kernel_sim_mips", &[]),
            decode_mips: m.histogram("ipsim_kernel_decode_mips", &[]),
            program_builds: m.counter("ipsim_harness_program_builds_total", &[]),
            program_reuses: m.counter("ipsim_harness_program_reuses_total", &[]),
        }
    })
}
