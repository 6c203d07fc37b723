//! Deterministic synthesis of a static [`Program`] from a
//! [`WorkloadProfile`].

use ipsim_types::instr::INSTR_BYTES;
use ipsim_types::{Addr, Rng64};

use crate::profile::WorkloadProfile;
use crate::program::{Block, FuncId, Function, Program, Terminator};
use crate::program::{BlockSink, TierSampler, WalkTable};

/// Base address of synthesised code (keeps PC 0 invalid).
const CODE_BASE: u64 = 0x1_0000;
/// Upper bound on blocks per function.
const MAX_BLOCKS: u64 = 63;
/// Upper bound on instructions per block.
const MAX_BLOCK_INSTRS: u64 = 31;
/// First block index at which call sites may appear.
const MIN_CALL_BLOCK: u32 = 2;

/// Builds a synthetic static program from a profile and a seed.
///
/// The same `(profile, seed)` pair always produces an identical program, so
/// several simulated cores can share "the same binary" and experiments are
/// reproducible.
///
/// # Examples
///
/// ```
/// use ipsim_trace::{ProgramBuilder, Workload};
///
/// let prog = ProgramBuilder::new(Workload::Web.profile(), 1).build();
/// assert!(prog.code_bytes() > 500_000);
/// prog.validate().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    profile: WorkloadProfile,
    seed: u64,
}

impl ProgramBuilder {
    /// Creates a builder.
    ///
    /// # Panics
    ///
    /// Panics if the profile's probabilities are inconsistent (see
    /// [`WorkloadProfile::assert_valid`]).
    pub fn new(profile: WorkloadProfile, seed: u64) -> ProgramBuilder {
        profile.assert_valid();
        ProgramBuilder { profile, seed }
    }

    /// Synthesises the program.
    pub fn build(&self) -> Program {
        let p = &self.profile;
        let functions = (p.n_functions + p.n_trap_handlers) as usize;
        // Expected block count plus a margin; `assemble` trims the excess.
        let blocks = (f64::from(p.n_functions) * (1.0 + p.blocks_per_fn_mean) * 1.1) as usize
            + 4 * p.n_trap_handlers as usize;
        let mut table = WalkTable::with_capacity(functions, blocks);
        let layout = self.synthesize(&mut table);
        let program = layout.assemble(table);
        debug_assert_eq!(program.validate(), Ok(()));
        program
    }

    /// Synthesises the program and also returns its functions exactly as
    /// drawn, before walk-table encoding — the reference that
    /// [`Program::function`]'s decoded view is checked against.
    pub fn build_with_functions(&self) -> (Program, Vec<Function>) {
        let mut recorder = Recorder::default();
        let layout = self.synthesize(&mut recorder);
        (layout.assemble(recorder.table), recorder.functions)
    }

    /// Draws the whole program into `sink`, one block at a time in layout
    /// order, and returns everything else the program needs.
    fn synthesize(&self, sink: &mut impl BlockSink) -> Layout {
        let p = &self.profile;
        let mut rng = Rng64::new(self.seed);
        let n = p.n_functions;

        // Popularity permutation: identity = hot functions first in the
        // address space (ideal link-time layout); each slot is perturbed
        // with probability (1 - layout_quality).
        let mut by_rank: Vec<FuncId> = (0..n).map(FuncId).collect();
        for r in 0..n as usize {
            if !rng.chance(p.layout_quality) {
                let other = rng.range(n as u64) as usize;
                by_rank.swap(r, other);
            }
        }

        let call_targets = TierSampler {
            hot: p.code_hot_fns,
            warm: p.code_warm_fns,
            total: n,
            hot_prob: p.call_hot_prob,
            warm_prob: p.call_warm_prob,
        };
        let dispatch = TierSampler {
            hot: p.code_hot_fns,
            warm: p.code_warm_fns,
            total: n,
            hot_prob: p.dispatch_hot_prob,
            warm_prob: p.dispatch_warm_prob,
        };
        let p_blocks = 1.0 / (1.0 + p.blocks_per_fn_mean);
        let p_instrs = 1.0 / (1.0 + p.instrs_per_block_mean);

        let code_start = Addr(CODE_BASE);
        let mut cursor = code_start;

        for _ in 0..n {
            let nb = 1 + rng.geometric(p_blocks, MAX_BLOCKS) as u32;
            sink.begin_function();
            for b in 0..nb {
                let ni = 1 + rng.geometric(p_instrs, MAX_BLOCK_INSTRS) as u32;
                let terminator = if b == nb - 1 {
                    Terminator::Return
                } else {
                    self.draw_terminator(&mut rng, b, nb, &by_rank, &call_targets)
                };
                sink.push(cursor, ni, terminator);
                cursor = cursor.offset(ni as u64 * INSTR_BYTES);
            }
        }

        // Trap handlers: short straight-line functions at the top of the
        // code segment (far from regular code, like kernel trap vectors).
        for _ in 0..p.n_trap_handlers {
            let nb = 2 + rng.range(3) as u32;
            sink.begin_function();
            for b in 0..nb {
                let ni = 2 + rng.range(6) as u32;
                let terminator = if b == nb - 1 {
                    Terminator::Return
                } else {
                    Terminator::FallThrough
                };
                sink.push(cursor, ni, terminator);
                cursor = cursor.offset(ni as u64 * INSTR_BYTES);
            }
        }

        Layout {
            code_start,
            code_bytes: cursor.0 - code_start.0,
            n_regular: n,
            by_rank,
            dispatch,
        }
    }

    /// Chooses the terminator for non-final block `b` of `nb`.
    fn draw_terminator(
        &self,
        rng: &mut Rng64,
        b: u32,
        nb: u32,
        by_rank: &[FuncId],
        popularity: &TierSampler,
    ) -> Terminator {
        let p = &self.profile;
        let r = rng.f64();
        let mut acc = p.cond_branch_frac;
        if r < acc {
            return self.draw_cond_branch(rng, b, nb);
        }
        acc += p.uncond_branch_frac;
        if r < acc {
            // Unconditional branches go forward (a `goto` past some
            // blocks, often to a merge point or cleanup code well ahead).
            let skip = 2 + rng.geometric(1.0 / (1.0 + p.fwd_skip_mean), 16);
            return Terminator::UncondBranch {
                target: (b + skip as u32).min(nb - 1),
            };
        }
        acc += p.call_frac;
        if r < acc {
            // Call sites do not appear in a function's first blocks
            // (prologue and setup code precede the first call in real
            // functions). This also gives a prefetcher probing at function
            // entry enough lead time to cover an L2-resident callee.
            if b < MIN_CALL_BLOCK {
                return Terminator::FallThrough;
            }
            return Terminator::Call {
                callee: by_rank[popularity.sample(rng) as usize],
            };
        }
        acc += p.indirect_call_frac;
        if r < acc && b < MIN_CALL_BLOCK {
            return Terminator::FallThrough;
        }
        if r < acc {
            let n_targets = 2 + rng.range(3) as usize;
            let callees = (0..n_targets)
                .map(|_| {
                    (
                        by_rank[popularity.sample(rng) as usize],
                        0.2 + rng.f64() as f32 * 0.8,
                    )
                })
                .collect();
            return Terminator::IndirectCall { callees };
        }
        acc += p.early_return_frac;
        if r < acc {
            return Terminator::Return;
        }
        Terminator::FallThrough
    }

    fn draw_cond_branch(&self, rng: &mut Rng64, b: u32, nb: u32) -> Terminator {
        let p = &self.profile;
        if rng.chance(p.cond_fwd_frac) {
            if rng.chance(p.rare_branch_frac) {
                // A rarely-taken guard (error/slow path): far-away cold
                // target, taken only occasionally — when it fires, the
                // target line has almost always left the caches. These are
                // the taken-forward branch misses of the paper's Figure 3.
                let skip = 2 + rng.geometric(1.0 / (1.0 + p.fwd_skip_mean * 2.0), 24);
                return Terminator::CondBranch {
                    target: (b + skip as u32).min(nb - 1),
                    taken_prob: (0.05 + rng.f64() * 0.17) as f32,
                };
            }
            let skip = 1 + rng.geometric(1.0 / (1.0 + (p.fwd_skip_mean - 1.0).max(0.0)), 12);
            Terminator::CondBranch {
                target: (b + skip as u32).min(nb - 1),
                taken_prob: jitter(rng, p.fwd_taken_prob),
            }
        } else {
            let span = 1 + rng.geometric(1.0 / (1.0 + (p.bwd_span_mean - 1.0).max(0.0)), 12);
            // Loop-continuation probability is capped: nested loops multiply
            // expected trip counts, and uncapped jitter produces functions
            // that trap the walker for millions of instructions.
            Terminator::CondBranch {
                target: b.saturating_sub(span as u32),
                taken_prob: jitter(rng, p.bwd_taken_prob).min(0.72),
            }
        }
    }
}

/// A walk table that also keeps each block as drawn.
#[derive(Default)]
struct Recorder {
    table: WalkTable,
    functions: Vec<Function>,
}

impl BlockSink for Recorder {
    fn begin_function(&mut self) {
        self.table.begin_function();
        self.functions.push(Function { blocks: Vec::new() });
    }

    fn push(&mut self, start: Addr, n_instrs: u32, terminator: Terminator) {
        let block = Block {
            start,
            n_instrs,
            terminator: terminator.clone(),
        };
        self.functions
            .last_mut()
            .expect("blocks follow begin_function")
            .blocks
            .push(block);
        self.table.push(start, n_instrs, terminator);
    }
}

/// Everything a program holds besides its walk table.
struct Layout {
    code_start: Addr,
    code_bytes: u64,
    n_regular: u32,
    by_rank: Vec<FuncId>,
    dispatch: TierSampler,
}

impl Layout {
    fn assemble(self, table: WalkTable) -> Program {
        let WalkTable {
            mut walk,
            func_base,
            indirect,
        } = table;
        walk.shrink_to_fit();
        Program {
            code_start: self.code_start,
            code_bytes: self.code_bytes,
            n_regular: self.n_regular,
            by_rank: self.by_rank,
            dispatch: self.dispatch,
            walk,
            func_base,
            indirect,
        }
    }
}

/// Adds ±0.15 of per-site variation to a mean probability, clamped to
/// (0.02, 0.98) so no branch is perfectly biased.
fn jitter(rng: &mut Rng64, mean: f64) -> f32 {
    let v = mean + (rng.f64() - 0.5) * 0.3;
    v.clamp(0.02, 0.98) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Workload;

    #[test]
    fn build_is_deterministic() {
        let a = ProgramBuilder::new(Workload::Db.profile(), 9).build();
        let b = ProgramBuilder::new(Workload::Db.profile(), 9).build();
        assert_eq!(a.code_bytes(), b.code_bytes());
        assert_eq!(a.n_functions(), b.n_functions());
        // Spot-check structural equality on a few functions.
        for id in [0u32, 100, 5000] {
            assert_eq!(a.function(FuncId(id)), b.function(FuncId(id)));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ProgramBuilder::new(Workload::Web.profile(), 1).build();
        let b = ProgramBuilder::new(Workload::Web.profile(), 2).build();
        assert_ne!(a.code_bytes(), b.code_bytes());
    }

    #[test]
    fn all_presets_validate() {
        for w in Workload::ALL {
            let prog = w.build_program(3);
            prog.validate().unwrap();
            assert_eq!(
                prog.n_functions(),
                w.profile().n_functions + w.profile().n_trap_handlers
            );
        }
    }

    #[test]
    fn code_footprints_are_multi_megabyte() {
        for w in Workload::ALL {
            let prog = w.build_program(4);
            assert!(
                prog.code_bytes() > 1 << 20,
                "{} code {} too small",
                w.name(),
                prog.code_bytes()
            );
        }
        let japp = Workload::JApp.build_program(4);
        let web = Workload::Web.build_program(4);
        assert!(japp.code_bytes() > web.code_bytes());
    }

    #[test]
    fn mean_block_and_function_sizes_track_profile() {
        let prof = Workload::Db.profile();
        let prog = ProgramBuilder::new(prof.clone(), 5).build();
        let total_blocks: u64 = (0..prog.n_regular())
            .map(|f| prog.function(FuncId(f)).blocks.len() as u64)
            .sum();
        let total_instrs: u64 = (0..prog.n_regular())
            .map(|f| prog.function(FuncId(f)).n_instrs() as u64)
            .sum();
        let mean_blocks = total_blocks as f64 / prog.n_regular() as f64;
        let mean_instrs = total_instrs as f64 / total_blocks as f64;
        assert!(
            (mean_blocks - (1.0 + prof.blocks_per_fn_mean)).abs() < 0.8,
            "mean blocks {mean_blocks}"
        );
        assert!(
            (mean_instrs - (1.0 + prof.instrs_per_block_mean)).abs() < 0.6,
            "mean instrs {mean_instrs}"
        );
    }

    #[test]
    fn trap_handlers_are_straight_line() {
        let prog = Workload::Web.build_program(6);
        for f in prog.n_regular()..prog.n_functions() {
            for (i, b) in prog.function(FuncId(f)).blocks.iter().enumerate() {
                let last = i == prog.function(FuncId(f)).blocks.len() - 1;
                if last {
                    assert_eq!(b.terminator, Terminator::Return);
                } else {
                    assert_eq!(b.terminator, Terminator::FallThrough);
                }
            }
        }
    }
}
