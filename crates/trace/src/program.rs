//! The static synthetic program: functions, basic blocks and control-flow
//! structure, laid out in a flat address space.

use ipsim_types::instr::INSTR_BYTES;
use ipsim_types::{Addr, Rng64};

/// Three-tier popularity sampler over function ranks: a small uniform hot
/// tier (the L1I-scale working set), a warm tier (L2-scale) and a cold
/// tail. Mirrors the data generator's locality hierarchy and gives the
/// workload profiles direct, well-behaved knobs over working-set sizes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TierSampler {
    pub(crate) hot: u32,
    pub(crate) warm: u32,
    pub(crate) total: u32,
    pub(crate) hot_prob: f64,
    pub(crate) warm_prob: f64,
}

impl TierSampler {
    /// Draws a popularity rank (0 = hottest region).
    pub(crate) fn sample(&self, rng: &mut Rng64) -> u32 {
        let r = rng.f64();
        if r < self.hot_prob {
            rng.range(self.hot as u64) as u32
        } else if r < self.hot_prob + self.warm_prob {
            self.hot + rng.range(self.warm as u64) as u32
        } else {
            let cold = self.total - self.hot - self.warm;
            if cold == 0 {
                rng.range(self.total as u64) as u32
            } else {
                self.hot + self.warm + rng.range(cold as u64) as u32
            }
        }
    }
}

/// Identifies a function by its layout position (function 0 sits at the
/// lowest code address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// How a basic block ends.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// The block simply continues into the next block (the "terminator"
    /// slot holds an ordinary instruction).
    FallThrough,
    /// A conditional PC-relative branch to `target` (a block index within
    /// the same function), taken with probability `taken_prob` on each
    /// dynamic execution.
    CondBranch {
        /// Target block index within the same function.
        target: u32,
        /// Per-execution probability the branch is taken.
        taken_prob: f32,
    },
    /// An unconditional PC-relative branch to block `target`.
    UncondBranch {
        /// Target block index within the same function.
        target: u32,
    },
    /// A direct call; execution resumes at the next block on return.
    Call {
        /// The (single, fixed) callee — direct call targets are embedded in
        /// the instruction, the property that makes most discontinuities
        /// single-target.
        callee: FuncId,
    },
    /// An indirect call (SPARC `jmpl`) through a register: one of several
    /// possible callees, chosen per dynamic execution.
    IndirectCall {
        /// Candidate callees with selection weights.
        callees: Vec<(FuncId, f32)>,
    },
    /// Return to the caller.
    Return,
}

/// A basic block: `n_instrs` instructions at `start`, the last being the
/// terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Address of the block's first instruction.
    pub start: Addr,
    /// Instruction count including the terminator slot (always ≥ 1).
    pub n_instrs: u32,
    /// How the block ends.
    pub terminator: Terminator,
}

impl Block {
    /// Address of the instruction at `idx` within this block.
    #[inline]
    pub fn instr_addr(&self, idx: u32) -> Addr {
        debug_assert!(idx < self.n_instrs);
        self.start.offset(idx as u64 * INSTR_BYTES)
    }
}

/// One function: contiguous basic blocks; block 0 is the entry, the last
/// block returns.
///
/// A [`Program`] does not store functions: [`Program::function`] decodes
/// this view from the flat walk table on demand (diagnostics and tests).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Basic blocks in layout order.
    pub blocks: Vec<Block>,
}

impl Function {
    /// The function's entry address.
    pub fn entry(&self) -> Addr {
        self.blocks[0].start
    }

    /// Total instructions across the function's blocks.
    pub fn n_instrs(&self) -> u32 {
        self.blocks.iter().map(|b| b.n_instrs).sum()
    }
}

/// Compact terminator discriminant for the flat walk table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalkKind {
    FallThrough,
    CondBranch,
    UncondBranch,
    Call,
    IndirectCall,
    Return,
}

/// One basic block in the flat walk table: everything the walker's
/// dispatch loop needs, in 24 bytes with no nested indirection. `target`
/// is overloaded by `kind` — a block index (branches), a callee function
/// (calls) or an index into the indirect-callee side table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalkBlock {
    pub(crate) start: Addr,
    pub(crate) n_instrs: u32,
    pub(crate) target: u32,
    pub(crate) prob: f32,
    pub(crate) kind: WalkKind,
}

/// The walk table under construction: the builder appends blocks function
/// by function and moves the finished parts into the [`Program`].
#[derive(Debug, Default)]
pub(crate) struct WalkTable {
    pub(crate) walk: Vec<WalkBlock>,
    pub(crate) func_base: Vec<u32>,
    pub(crate) indirect: Vec<Vec<(FuncId, f32)>>,
}

impl WalkTable {
    /// An empty table with room for `functions` functions and `blocks`
    /// blocks.
    pub(crate) fn with_capacity(functions: usize, blocks: usize) -> WalkTable {
        WalkTable {
            walk: Vec::with_capacity(blocks),
            func_base: Vec::with_capacity(functions),
            indirect: Vec::new(),
        }
    }
}

/// Where the builder puts the blocks it draws, in layout order.
pub(crate) trait BlockSink {
    /// Opens the next function; its blocks follow via [`BlockSink::push`].
    fn begin_function(&mut self);
    /// Appends one block of the open function.
    fn push(&mut self, start: Addr, n_instrs: u32, terminator: Terminator);
}

impl BlockSink for WalkTable {
    fn begin_function(&mut self) {
        self.func_base.push(self.walk.len() as u32);
    }

    /// Encodes the terminator into the block's record (the inverse of
    /// `Program::terminator`).
    fn push(&mut self, start: Addr, n_instrs: u32, terminator: Terminator) {
        let (kind, target, prob) = match terminator {
            Terminator::FallThrough => (WalkKind::FallThrough, 0, 0.0),
            Terminator::CondBranch { target, taken_prob } => {
                (WalkKind::CondBranch, target, taken_prob)
            }
            Terminator::UncondBranch { target } => (WalkKind::UncondBranch, target, 0.0),
            Terminator::Call { callee } => (WalkKind::Call, callee.0, 0.0),
            Terminator::IndirectCall { callees } => {
                self.indirect.push(callees);
                (
                    WalkKind::IndirectCall,
                    (self.indirect.len() - 1) as u32,
                    0.0,
                )
            }
            Terminator::Return => (WalkKind::Return, 0, 0.0),
        };
        self.walk.push(WalkBlock {
            start,
            n_instrs,
            target,
            prob,
            kind,
        });
    }
}

/// A complete synthetic static program.
///
/// Built by [`ProgramBuilder`](crate::ProgramBuilder); walked by
/// [`TraceWalker`](crate::TraceWalker). Several walkers (one per simulated
/// core) may share one `Program` — that is how we model multiple cores
/// running the same binary with shared code but independent control flow.
///
/// The flat walk table is the only block store: one 24-byte record per
/// basic block, every function's blocks concatenated in layout order, plus
/// `func_base` (first block of each function) and the indirect-callee side
/// table. [`Program::function`] decodes the structured view from it.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) code_start: Addr,
    pub(crate) code_bytes: u64,
    /// Number of ordinary (non-trap-handler) functions; handlers occupy the
    /// tail of the function list.
    pub(crate) n_regular: u32,
    /// Popularity permutation: `by_rank[r]` is the function holding
    /// popularity rank `r` (rank 0 hottest).
    pub(crate) by_rank: Vec<FuncId>,
    /// Sampler over popularity ranks used for transaction dispatch.
    pub(crate) dispatch: TierSampler,
    /// Flat walk table: every function's blocks, concatenated in layout
    /// order — the walker reads one 24-byte record per control transfer.
    pub(crate) walk: Vec<WalkBlock>,
    /// `func_base[f]` is the index of function `f`'s first block in `walk`.
    pub(crate) func_base: Vec<u32>,
    /// Indirect-call candidate tables, referenced by `WalkBlock::target`.
    pub(crate) indirect: Vec<Vec<(FuncId, f32)>>,
}

impl Program {
    /// The walk-table record for block `block` of function `func`.
    #[inline]
    pub(crate) fn walk_block(&self, func: u32, block: u32) -> &WalkBlock {
        &self.walk[(self.func_base[func as usize] + block) as usize]
    }

    /// Entry address of function `id`, served from the walk table.
    #[inline]
    pub(crate) fn entry_addr(&self, id: FuncId) -> Addr {
        self.walk[self.func_base[id.0 as usize] as usize].start
    }

    /// The walk-table index range holding function `f`'s blocks.
    fn block_range(&self, f: usize) -> std::ops::Range<usize> {
        let end = self
            .func_base
            .get(f + 1)
            .map_or(self.walk.len(), |&next| next as usize);
        self.func_base[f] as usize..end
    }

    /// The function with id `id`, decoded from the walk table.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> Function {
        let blocks = self.walk[self.block_range(id.0 as usize)]
            .iter()
            .map(|b| Block {
                start: b.start,
                n_instrs: b.n_instrs,
                terminator: self.terminator(b),
            })
            .collect();
        Function { blocks }
    }

    /// Decodes a walk-table record's terminator.
    fn terminator(&self, b: &WalkBlock) -> Terminator {
        match b.kind {
            WalkKind::FallThrough => Terminator::FallThrough,
            WalkKind::CondBranch => Terminator::CondBranch {
                target: b.target,
                taken_prob: b.prob,
            },
            WalkKind::UncondBranch => Terminator::UncondBranch { target: b.target },
            WalkKind::Call => Terminator::Call {
                callee: FuncId(b.target),
            },
            WalkKind::IndirectCall => Terminator::IndirectCall {
                callees: self.indirect[b.target as usize].clone(),
            },
            WalkKind::Return => Terminator::Return,
        }
    }

    /// Total number of functions, including trap handlers.
    pub fn n_functions(&self) -> u32 {
        self.func_base.len() as u32
    }

    /// Total basic blocks across all functions (the walk table's length).
    pub fn n_blocks(&self) -> u32 {
        self.walk.len() as u32
    }

    /// Number of ordinary (callable) functions.
    pub fn n_regular(&self) -> u32 {
        self.n_regular
    }

    /// Lowest code address.
    pub fn code_start(&self) -> Addr {
        self.code_start
    }

    /// Total code size in bytes.
    pub fn code_bytes(&self) -> u64 {
        self.code_bytes
    }

    /// Draws the entry function for the next top-level transaction.
    pub fn next_transaction(&self, rng: &mut Rng64) -> FuncId {
        self.by_rank[self.dispatch.sample(rng) as usize]
    }

    /// Draws a popularity rank from the dispatch tiers (used by the walker
    /// to centre a transaction's service window).
    pub fn dispatch_rank(&self, rng: &mut Rng64) -> u32 {
        self.dispatch.sample(rng)
    }

    /// The function holding popularity rank `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn function_at_rank(&self, rank: u32) -> FuncId {
        self.by_rank[rank as usize]
    }

    /// Draws a trap-handler function.
    ///
    /// # Panics
    ///
    /// Panics if the program was built without trap handlers.
    pub fn trap_handler(&self, rng: &mut Rng64) -> FuncId {
        let n_handlers = self.n_functions() - self.n_regular;
        assert!(n_handlers > 0, "program has no trap handlers");
        FuncId(self.n_regular + rng.range(n_handlers as u64) as u32)
    }

    /// Checks structural invariants; used by tests and the builder.
    ///
    /// Verified invariants: blocks are laid out contiguously and in order;
    /// every branch target is a valid block index in its function; every
    /// call target is a valid function; the last block of every function
    /// returns; code addresses start at `code_start` and span `code_bytes`.
    pub fn validate(&self) -> Result<(), String> {
        if self.func_base.first().is_some_and(|&b| b != 0) {
            return Err("function 0 does not start the walk table".to_string());
        }
        let mut cursor = self.code_start;
        for fi in 0..self.func_base.len() {
            let range = self.block_range(fi);
            if range.is_empty() {
                return Err(format!("function {fi} has no blocks"));
            }
            let nb = range.len() as u32;
            for (bi, b) in self.walk[range].iter().enumerate() {
                if b.start != cursor {
                    return Err(format!(
                        "function {fi} block {bi}: start {} != cursor {}",
                        b.start, cursor
                    ));
                }
                if b.n_instrs == 0 {
                    return Err(format!("function {fi} block {bi} empty"));
                }
                cursor = cursor.offset(b.n_instrs as u64 * INSTR_BYTES);
                match b.kind {
                    WalkKind::CondBranch => {
                        if b.target >= nb {
                            return Err(format!("function {fi} block {bi}: bad target"));
                        }
                        if !(0.0..=1.0).contains(&b.prob) {
                            return Err(format!("function {fi} block {bi}: bad prob"));
                        }
                    }
                    WalkKind::UncondBranch => {
                        if b.target >= nb {
                            return Err(format!("function {fi} block {bi}: bad target"));
                        }
                    }
                    WalkKind::Call => {
                        if b.target >= self.n_regular {
                            return Err(format!("function {fi} block {bi}: bad callee"));
                        }
                    }
                    WalkKind::IndirectCall => {
                        let Some(callees) = self.indirect.get(b.target as usize) else {
                            return Err(format!("function {fi} block {bi}: bad callee table"));
                        };
                        if callees.is_empty() {
                            return Err(format!("function {fi} block {bi}: no callees"));
                        }
                        for (c, w) in callees {
                            if c.0 >= self.n_regular || *w <= 0.0 {
                                return Err(format!("function {fi} block {bi}: bad callee"));
                            }
                        }
                    }
                    WalkKind::FallThrough | WalkKind::Return => {}
                }
                // Non-final fall-through/branch blocks need a successor.
                let is_last = bi as u32 == nb - 1;
                if is_last && b.kind != WalkKind::Return {
                    return Err(format!("function {fi}: last block does not return"));
                }
            }
        }
        let span = cursor.0 - self.code_start.0;
        if span != self.code_bytes {
            return Err(format!(
                "code_bytes {} != laid-out span {span}",
                self.code_bytes
            ));
        }
        if self.by_rank.len() != self.n_regular as usize {
            return Err("popularity permutation size mismatch".to_string());
        }
        Ok(())
    }
}
