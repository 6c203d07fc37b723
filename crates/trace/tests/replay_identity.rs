//! Three-way stream identity: a live walker, a per-op decode of its
//! captured trace through `TraceReader::next_op`, and a zero-copy arena
//! replay of the same trace must all produce the identical op sequence —
//! across every workload profile and a spread of seeds.
//!
//! This is the proof obligation behind the harness's capture/replay and
//! arena paths: any stream source may feed any run, so every source must
//! be byte-for-byte the same stream. The arena leg additionally exercises
//! `next_slice` with irregular request sizes, the exact access pattern the
//! scheduler produces near stream ends.

use std::io::Cursor;

use ipsim_stream::{ArenaSource, TraceReader, TraceSource, TraceWriter};
use ipsim_trace::{TraceWalker, Workload};
use ipsim_types::instr::TraceOp;
use proptest::prelude::*;

fn any_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(Workload::Db),
        Just(Workload::TpcW),
        Just(Workload::JApp),
        Just(Workload::Web),
    ]
}

/// Drains `n` ops from a source through `next_block` with an irregular
/// quantum pattern (1, 2, 3, … capped at 16), mimicking scheduler
/// behaviour where the final block of a target window is short.
fn drain_blocks(source: &mut impl TraceSource, n: usize) -> Vec<TraceOp> {
    let mut out = Vec::with_capacity(n);
    let mut quantum = 1usize;
    let filler = TraceOp {
        pc: ipsim_types::Addr(0),
        kind: ipsim_types::instr::OpKind::Other,
    };
    while out.len() < n {
        let take = quantum.min(n - out.len());
        let mut block = vec![filler; take];
        source.next_block(&mut block);
        out.extend_from_slice(&block);
        quantum = (quantum % 16) + 1;
    }
    out
}

/// Drains `n` ops through `next_slice` with the same irregular pattern;
/// panics if the source cannot lend (arena sources always can).
fn drain_slices(source: &mut impl TraceSource, n: usize) -> Vec<TraceOp> {
    let mut out = Vec::with_capacity(n);
    let mut quantum = 1usize;
    while out.len() < n {
        let take = quantum.min(n - out.len());
        let ops = source.next_slice(take).expect("arena sources lend slices");
        assert_eq!(ops.len(), take, "a Some slice has exactly n ops");
        out.extend_from_slice(ops);
        quantum = (quantum % 16) + 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn live_buffered_and_arena_streams_are_identical(
        w in any_workload(),
        program_seed in 0u64..100,
        walker_seed in 0u64..1000,
        n in 1usize..5_000,
    ) {
        // Live leg: generate the reference stream, capturing as we go.
        let prog = w.build_program(program_seed);
        let mut walker = TraceWalker::new(&prog, w.profile(), 0, walker_seed);
        let mut writer = TraceWriter::new(Vec::new(), 0, "identity").unwrap();
        let mut live = Vec::with_capacity(n);
        for _ in 0..n {
            let op = walker.next_op();
            writer.append(&op).unwrap();
            live.push(op);
        }
        let (bytes, stats) = writer.finish_into().unwrap();
        prop_assert_eq!(stats.ops, n as u64);

        // Per-op leg: the decoder one op at a time, then end of trace.
        let mut reader = TraceReader::open(Cursor::new(&bytes)).unwrap();
        let mut decoded = Vec::with_capacity(n);
        while let Some(op) = reader.next_op().unwrap() {
            decoded.push(op);
        }
        prop_assert_eq!(&decoded, &live, "per-op decode diverged");

        // Zero-copy leg: decode once into an arena, lend slices.
        let mut reader = TraceReader::open(Cursor::new(&bytes)).unwrap();
        let mut arena = Vec::new();
        let arena_stats = reader.decode_all_into(&mut arena).unwrap();
        prop_assert_eq!(arena_stats.ops, n as u64);
        prop_assert_eq!(&arena, &live, "arena decode diverged");
        let mut source = ArenaSource::new(arena.as_slice());
        let sliced = drain_slices(&mut source, n);
        prop_assert_eq!(&sliced, &live, "arena slices diverged");
        let mut source = ArenaSource::new(arena.as_slice());
        let blocks = drain_blocks(&mut source, n);
        prop_assert_eq!(&blocks, &live, "arena blocks diverged");

        // And the same arena rewound serves per-op identically too.
        let mut source = ArenaSource::new(arena.as_slice());
        let per_op: Vec<TraceOp> = (0..n).map(|_| source.next_op()).collect();
        prop_assert_eq!(&per_op, &live, "arena per-op diverged");
    }
}
