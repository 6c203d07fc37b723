//! Output checks shared by every workload.

use std::collections::BTreeMap;

use ipsim_harness::hash::Fnv1a64;
use ipsim_harness::{RunSpec, Summary};

use crate::report::Report;
use crate::{Workload, DEFAULT_SEED};

/// Default-seed digests, one `<workload> <hex digest>` line each.
const DIGESTS: &str = include_str!("../digests.txt");

/// A summary's measured instruction count must be the measure window on
/// every core (the warm window is simulated but not counted).
pub fn instruction_count(spec: &RunSpec, summary: &Summary) -> Option<String> {
    let want = spec.lengths.measure * u64::from(spec.config.n_cores);
    (summary.instructions != want).then(|| {
        format!(
            "{}: measured {} instructions, expected {want}",
            spec.label(),
            summary.instructions
        )
    })
}

/// FNV-1a over `key TAB summary-tsv NEWLINE` in cache-key order.
pub fn digest_tsv(by_key: &BTreeMap<String, String>) -> u64 {
    let mut h = Fnv1a64::new();
    for (key, tsv) in by_key {
        h.write(key.as_bytes());
        h.write(b"\t");
        h.write(tsv.as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

pub fn digest(summaries: &BTreeMap<String, Summary>) -> u64 {
    digest_tsv(
        &summaries
            .iter()
            .map(|(k, s)| (k.clone(), s.to_tsv()))
            .collect(),
    )
}

fn expected(workload: Workload) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload.name())
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    })
}

/// Every repetition must produce the same digest; on the default seed it
/// must also equal the recorded one. The digest is printed so a
/// deliberate change of simulated results can be re-recorded.
pub fn digests(workload: Workload, seed: u64, digests: &[u64], report: &mut Report) {
    let Some(&first) = digests.first() else {
        return;
    };
    println!("digest {} seed {seed}: {first:016x}", workload.name());
    if digests.iter().any(|&d| d != first) {
        report.fail(format!("{}: repetitions disagree", workload.name()));
    }
    if seed == DEFAULT_SEED {
        match expected(workload) {
            Some(want) if want == first => {}
            Some(want) => report.fail(format!(
                "{}: digest {first:016x} differs from the recorded {want:016x}",
                workload.name()
            )),
            None => report.fail(format!("{}: no recorded digest", workload.name())),
        }
    }
}
