//! Per-op decode throughput vs live walker generation.
//!
//! Decoding a captured stream op by op is *not* cheaper than regenerating
//! it through the Markov walker over a shared program: the walker wins
//! (about 26 vs 33 ns/op on a 2-vCPU x86-64 container). That is why the
//! trace store replays only from arenas decoded once into memory and runs
//! any stream too long for its arena budget live. This bench measures
//! both sides per op for the DB profile, plus a full-trace decode pass
//! (open + every block CRC + every op) — the cost of building an arena.

use std::io::Cursor;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ipsim_stream::{TraceReader, TraceWriter};
use ipsim_trace::{TraceWalker, Workload};

const TRACE_OPS: u64 = 200_000;

/// Captures `TRACE_OPS` DB-profile ops into an in-memory trace file.
fn captured_db_trace() -> Vec<u8> {
    let w = Workload::Db;
    let prog = w.build_program(0x5EED_0001);
    let mut walker = TraceWalker::new(&prog, w.profile(), 0, 0x5EED_1001);
    let mut writer = TraceWriter::new(Vec::new(), 0, "bench-db").expect("header write");
    for _ in 0..TRACE_OPS {
        writer.append(&walker.next_op()).expect("append");
    }
    let (bytes, _stats) = writer.finish_into().expect("finish");
    bytes
}

fn bench_stream(c: &mut Criterion) {
    let bytes = captured_db_trace();
    let mut group = c.benchmark_group("stream");

    group.bench_function("live_walker_next_op", |b| {
        let w = Workload::Db;
        let prog = w.build_program(0x5EED_0001);
        let mut walker = TraceWalker::new(&prog, w.profile(), 0, 0x5EED_1001);
        b.iter(|| black_box(walker.next_op()));
    });

    group.bench_function("replay_decode_next_op", |b| {
        let mut reader = TraceReader::open(Cursor::new(bytes.clone())).expect("open");
        b.iter(|| match reader.next_op().expect("decode") {
            Some(op) => black_box(op),
            None => {
                reader.rewind().expect("rewind");
                black_box(reader.next_op().expect("decode").expect("nonempty"))
            }
        });
    });

    group.bench_function("replay_open_and_decode_full_trace", |b| {
        b.iter(|| {
            let mut reader = TraceReader::open(Cursor::new(bytes.clone())).expect("open");
            let mut n = 0u64;
            while let Some(op) = reader.next_op().expect("decode") {
                black_box(op);
                n += 1;
            }
            assert_eq!(n, TRACE_OPS);
            n
        });
    });

    group.finish();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
