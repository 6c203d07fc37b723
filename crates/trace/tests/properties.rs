//! Property-based tests over the trace generator: for any seed and any
//! workload, the synthesised program is structurally valid and the dynamic
//! stream is self-consistent; the walk table that is a program's only
//! block store decodes back to exactly the functions the builder drew.

use ipsim_trace::{FuncId, ProgramBuilder, Terminator, TraceWalker, Workload};
use proptest::prelude::*;

fn any_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(Workload::Db),
        Just(Workload::TpcW),
        Just(Workload::JApp),
        Just(Workload::Web),
    ]
}

proptest! {
    // Program construction is the expensive part; keep case counts modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every (workload, seed) pair yields a structurally valid program.
    #[test]
    fn programs_validate(w in any_workload(), seed in 0u64..1000) {
        let prog = w.build_program(seed);
        prop_assert_eq!(prog.validate(), Ok(()));
    }

    /// The dynamic stream is self-consistent for arbitrary seeds: every
    /// op's PC equals the previous op's successor.
    #[test]
    fn streams_are_self_consistent(
        w in any_workload(),
        prog_seed in 0u64..100,
        walk_seed in 0u64..1000,
        core in 0u32..4,
    ) {
        let prog = w.build_program(prog_seed);
        let mut walker = TraceWalker::new(&prog, w.profile(), core, walk_seed);
        let mut prev = walker.next_op();
        for _ in 0..30_000 {
            let op = walker.next_op();
            prop_assert_eq!(op.pc, prev.next_pc());
            prev = op;
        }
    }

    /// All PCs stay inside the program's code segment.
    #[test]
    fn pcs_stay_in_code_segment(w in any_workload(), seed in 0u64..100) {
        let prog = w.build_program(seed);
        let lo = prog.code_start().0;
        let hi = lo + prog.code_bytes();
        let mut walker = TraceWalker::new(&prog, w.profile(), 0, seed ^ 0xABCD);
        for _ in 0..30_000 {
            let pc = walker.next_op().pc.0;
            prop_assert!(pc >= lo && pc < hi, "pc {pc:#x} outside [{lo:#x}, {hi:#x})");
        }
    }

    /// The walk-table-only program decodes to the builder's functions
    /// block for block — start, length and terminator, indirect callee
    /// tables included — and still validates.
    #[test]
    fn function_view_matches_the_drawn_functions(w in any_workload(), seed in 0u64..1000) {
        let (prog, drawn) = ProgramBuilder::new(w.profile(), seed).build_with_functions();
        prop_assert_eq!(prog.validate(), Ok(()));
        prop_assert_eq!(prog.n_functions() as usize, drawn.len());
        let mut indirect = 0;
        for (id, want) in drawn.iter().enumerate() {
            let got = prog.function(FuncId(id as u32));
            prop_assert_eq!(&got, want, "function {}", id);
            indirect += got
                .blocks
                .iter()
                .filter(|b| matches!(b.terminator, Terminator::IndirectCall { .. }))
                .count();
        }
        prop_assert!(indirect > 0, "no indirect call sites exercised");
        // The recording build is the plain build plus a copy.
        let plain = w.build_program(seed);
        prop_assert_eq!(plain.code_bytes(), prog.code_bytes());
        prop_assert_eq!(plain.function(FuncId(0)), prog.function(FuncId(0)));
    }
}

/// FNV-1a over the `Debug` rendering of every decoded function.
fn function_fingerprint(w: Workload, seed: u64) -> u64 {
    let prog = w.build_program(seed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in 0..prog.n_functions() {
        for b in format!("{:?}", prog.function(FuncId(f))).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Pins the decoded function view of every workload, at the default
/// program seed and one other, to the fingerprints of the programs built
/// when `Program` still stored its functions directly: the walk-table-only
/// layout changes where blocks live, not which blocks are drawn.
#[test]
fn function_view_matches_the_pre_walk_table_programs() {
    let golden = [
        (Workload::Db, 0x5EED_0001, 0xb3ff_e669_fd40_bf5a),
        (Workload::Db, 7, 0x8258_7ff4_f951_48b4),
        (Workload::TpcW, 0x5EED_0001, 0x1eb6_ae4c_b1af_5cfd),
        (Workload::TpcW, 7, 0xd7be_b526_a970_bb85),
        (Workload::JApp, 0x5EED_0001, 0xb016_741a_ad8a_1613),
        (Workload::JApp, 7, 0x700b_8a41_c016_031b),
        (Workload::Web, 0x5EED_0001, 0x0355_2e43_ba06_dc69),
        (Workload::Web, 7, 0x005e_ee80_d67a_d9a7),
    ];
    for (w, seed, want) in golden {
        assert_eq!(
            function_fingerprint(w, seed),
            want,
            "{} seed {seed:#x}: decoded functions differ",
            w.name()
        );
    }
}
