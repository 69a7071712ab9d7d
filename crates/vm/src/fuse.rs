//! Superinstruction fusion and the fused burst, the production execution
//! loop.
//!
//! [`FusedProgram::fuse`] runs once per decoded image and rewrites the hot
//! adjacent pairs the ia-obs histograms surface (`cmp`+conditional-branch,
//! `li r7,n`+`sys`, `addi`+branch loop edges, load+ALU) into single
//! [`FusedOp`] superinstructions. [`run_burst_fused`] then executes the
//! rewritten program with one flat `match` per dispatch — the
//! threaded-dispatch inner loop — keeping the pc and register file in
//! locals across a whole run of back-to-back turns and answering `getpid`
//! and `gettimeofday` traps from an [`AnswerTable`] without leaving the
//! loop, so the scheduler can amortise its per-turn round over
//! uninterruptible compute and trap stretches. It is the one production
//! execution loop; [`run_slice`](crate::machine::run_slice) over `step` is
//! its reference.
//!
//! The burst defines no instruction itself. A plain slot runs its one
//! instruction, and a superinstruction runs its two constituents, through
//! the reference's [`exec`] on the burst's locals; what fusion saves is the
//! second dispatch, the second budget check and the per-instruction sync
//! with the `VmState`. `FusedOp` keeps one flat variant per plain
//! instruction (rather than wrapping an [`Insn`]) so that rustc lowers the
//! dispatch to a single jump table.
//!
//! Two invariants make the rewrite invisible:
//!
//! * **Accounting is by constituent count.** A fused pair retires 2, so the
//!   virtual clock, slice boundaries, itimer firings and BENCH numbers are
//!   bit-identical to the plain interpreter. When fewer than 2 instructions
//!   of budget remain, the pair is split and only its first constituent
//!   executes — exactly where the plain engine's slice would have expired.
//! * **Indexes are independent.** `ops[i]` is the best fusion *starting* at
//!   raw pc `i`; a branch into the second instruction of a fused pair lands
//!   on that index's own (plain) entry. Jump targets stay raw code indexes,
//!   so `FusedProgram` is a derived view, never an observable one — which is
//!   also why `ia-analyze` keeps consuming raw images.
//!
//! Only a pair's *first* constituent can fault (`Div`/`Rem` and memory ops
//! are never fused as the second half), so a faulting superinstruction
//! parks the pc at its start with zero constituents retired — the same
//! state the plain engine leaves.

use ia_abi::{RawArgs, Signal, SysResult, Sysno, Timeval, Timezone};

use crate::insn::Insn;
use crate::machine::{
    exec, set_sysret, Exec, FastSpec, SliceEnd, SliceResult, VmState, SYS_NR_REG,
};
use crate::mem::AddressSpace;

/// The superinstruction families, in hit-counter order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedKind {
    /// `seq|sltu|slt rd,a,b` + `jz|jnz rd,t`.
    CmpBranch = 0,
    /// `addi rd,rs,imm` + `jz|jnz rd,t` — countdown loop edges.
    AddiBranch = 1,
    /// `addi rd,rs,imm` + `jmp t` — the compute-loop back edge.
    AddiJmp = 2,
    /// `li r7,n` + `sys` — the canonical trap sequence.
    LiSys = 3,
    /// `ld rd,[rs+off]` + register-only ALU op.
    LdAlu = 4,
}

/// Number of [`FusedKind`] families — the length of a hit-counter array.
pub const FUSED_KINDS: usize = 5;

/// Report names, indexed by `FusedKind as usize`.
pub const FUSED_KIND_NAMES: [&str; FUSED_KINDS] =
    ["cmp+branch", "addi+branch", "addi+jmp", "li+sys", "ld+alu"];

/// Register-only ALU second halves of an [`FusedOp::LdAlu`] pair. All are
/// non-faulting, so only the leading load can fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alu {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Wrapping multiply.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

/// One slot of a fused program: either the plain [`Insn`] at that index,
/// or a two-instruction superinstruction starting there.
///
/// Superinstruction payloads are packed (`u32` targets, `i32` immediates);
/// a pair whose fields don't fit simply stays plain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // plain variants mirror `Insn` one-for-one
pub enum FusedOp {
    // -- plain mirrors, same payloads and semantics as `Insn` --
    Li(u8, u64),
    Mov(u8, u8),
    Ld(u8, u8, i64),
    St(u8, u8, i64),
    Ldb(u8, u8, i64),
    Stb(u8, u8, i64),
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    Mul(u8, u8, u8),
    Div(u8, u8, u8),
    Rem(u8, u8, u8),
    Addi(u8, u8, i64),
    And(u8, u8, u8),
    Or(u8, u8, u8),
    Xor(u8, u8, u8),
    Shl(u8, u8, u8),
    Shr(u8, u8, u8),
    Sltu(u8, u8, u8),
    Slt(u8, u8, u8),
    Seq(u8, u8, u8),
    Jmp(u64),
    Jz(u8, u64),
    Jnz(u8, u64),
    Call(u64),
    Ret,
    Sys,
    Halt,
    Nop,
    // -- superinstructions (each retires 2 constituents) --
    /// `seq rd,a,b; jz rd,t`.
    SeqJz {
        rd: u8,
        a: u8,
        b: u8,
        t: u32,
    },
    /// `seq rd,a,b; jnz rd,t`.
    SeqJnz {
        rd: u8,
        a: u8,
        b: u8,
        t: u32,
    },
    /// `sltu rd,a,b; jz rd,t`.
    SltuJz {
        rd: u8,
        a: u8,
        b: u8,
        t: u32,
    },
    /// `sltu rd,a,b; jnz rd,t`.
    SltuJnz {
        rd: u8,
        a: u8,
        b: u8,
        t: u32,
    },
    /// `slt rd,a,b; jz rd,t`.
    SltJz {
        rd: u8,
        a: u8,
        b: u8,
        t: u32,
    },
    /// `slt rd,a,b; jnz rd,t`.
    SltJnz {
        rd: u8,
        a: u8,
        b: u8,
        t: u32,
    },
    /// `addi rd,rs,imm; jz rd,t`.
    AddiJz {
        rd: u8,
        rs: u8,
        imm: i32,
        t: u32,
    },
    /// `addi rd,rs,imm; jnz rd,t`.
    AddiJnz {
        rd: u8,
        rs: u8,
        imm: i32,
        t: u32,
    },
    /// `addi rd,rs,imm; jmp t`.
    AddiJmp {
        rd: u8,
        rs: u8,
        imm: i32,
        t: u32,
    },
    /// `li r7,nr; sys`.
    LiSys(u64),
    /// `ld rd,[rs+off]; <alu> rd2,a,b`.
    LdAlu {
        alu: Alu,
        rd: u8,
        rs: u8,
        off: i32,
        rd2: u8,
        a: u8,
        b: u8,
    },
}

impl FusedOp {
    /// The first constituent of a superinstruction, or `None` for a plain
    /// mirror — what executes when the slice budget can't cover the pair.
    #[must_use]
    fn first_constituent(self) -> Option<Insn> {
        use FusedOp as F;
        match self {
            F::SeqJz { rd, a, b, .. } | F::SeqJnz { rd, a, b, .. } => Some(Insn::Seq(rd, a, b)),
            F::SltuJz { rd, a, b, .. } | F::SltuJnz { rd, a, b, .. } => Some(Insn::Sltu(rd, a, b)),
            F::SltJz { rd, a, b, .. } | F::SltJnz { rd, a, b, .. } => Some(Insn::Slt(rd, a, b)),
            F::AddiJz { rd, rs, imm, .. }
            | F::AddiJnz { rd, rs, imm, .. }
            | F::AddiJmp { rd, rs, imm, .. } => Some(Insn::Addi(rd, rs, i64::from(imm))),
            F::LiSys(nr) => Some(Insn::Li(SYS_NR_REG as u8, nr)),
            F::LdAlu { rd, rs, off, .. } => Some(Insn::Ld(rd, rs, i64::from(off))),
            _ => None,
        }
    }
}

/// A plain instruction's one-for-one mirror.
fn mirror(insn: Insn) -> FusedOp {
    use FusedOp as F;
    use Insn as I;
    match insn {
        I::Li(rd, v) => F::Li(rd, v),
        I::Mov(rd, rs) => F::Mov(rd, rs),
        I::Ld(rd, rs, off) => F::Ld(rd, rs, off),
        I::St(rd, rs, off) => F::St(rd, rs, off),
        I::Ldb(rd, rs, off) => F::Ldb(rd, rs, off),
        I::Stb(rd, rs, off) => F::Stb(rd, rs, off),
        I::Add(rd, a, b) => F::Add(rd, a, b),
        I::Sub(rd, a, b) => F::Sub(rd, a, b),
        I::Mul(rd, a, b) => F::Mul(rd, a, b),
        I::Div(rd, a, b) => F::Div(rd, a, b),
        I::Rem(rd, a, b) => F::Rem(rd, a, b),
        I::Addi(rd, rs, imm) => F::Addi(rd, rs, imm),
        I::And(rd, a, b) => F::And(rd, a, b),
        I::Or(rd, a, b) => F::Or(rd, a, b),
        I::Xor(rd, a, b) => F::Xor(rd, a, b),
        I::Shl(rd, a, b) => F::Shl(rd, a, b),
        I::Shr(rd, a, b) => F::Shr(rd, a, b),
        I::Sltu(rd, a, b) => F::Sltu(rd, a, b),
        I::Slt(rd, a, b) => F::Slt(rd, a, b),
        I::Seq(rd, a, b) => F::Seq(rd, a, b),
        I::Jmp(t) => F::Jmp(t),
        I::Jz(rs, t) => F::Jz(rs, t),
        I::Jnz(rs, t) => F::Jnz(rs, t),
        I::Call(t) => F::Call(t),
        I::Ret => F::Ret,
        I::Sys => F::Sys,
        I::Halt => F::Halt,
        I::Nop => F::Nop,
    }
}

/// The ALU tag for an instruction usable as an `LdAlu` second half.
fn alu_of(insn: Insn) -> Option<(Alu, u8, u8, u8)> {
    use Insn as I;
    match insn {
        I::Add(rd, a, b) => Some((Alu::Add, rd, a, b)),
        I::Sub(rd, a, b) => Some((Alu::Sub, rd, a, b)),
        I::Mul(rd, a, b) => Some((Alu::Mul, rd, a, b)),
        I::And(rd, a, b) => Some((Alu::And, rd, a, b)),
        I::Or(rd, a, b) => Some((Alu::Or, rd, a, b)),
        I::Xor(rd, a, b) => Some((Alu::Xor, rd, a, b)),
        _ => None,
    }
}

/// The best op starting at one index: a superinstruction over `(a, b)` when
/// the pair is a known-hot shape whose fields pack, else `a`'s mirror.
fn fuse_pair(a: Insn, b: Option<Insn>) -> FusedOp {
    use Insn as I;
    let Some(b) = b else { return mirror(a) };
    let narrow = |t: u64| u32::try_from(t).ok();
    let fused = match (a, b) {
        (I::Seq(rd, x, y), I::Jz(rs, t)) if rs == rd => {
            narrow(t).map(|t| FusedOp::SeqJz { rd, a: x, b: y, t })
        }
        (I::Seq(rd, x, y), I::Jnz(rs, t)) if rs == rd => {
            narrow(t).map(|t| FusedOp::SeqJnz { rd, a: x, b: y, t })
        }
        (I::Sltu(rd, x, y), I::Jz(rs, t)) if rs == rd => {
            narrow(t).map(|t| FusedOp::SltuJz { rd, a: x, b: y, t })
        }
        (I::Sltu(rd, x, y), I::Jnz(rs, t)) if rs == rd => {
            narrow(t).map(|t| FusedOp::SltuJnz { rd, a: x, b: y, t })
        }
        (I::Slt(rd, x, y), I::Jz(rs, t)) if rs == rd => {
            narrow(t).map(|t| FusedOp::SltJz { rd, a: x, b: y, t })
        }
        (I::Slt(rd, x, y), I::Jnz(rs, t)) if rs == rd => {
            narrow(t).map(|t| FusedOp::SltJnz { rd, a: x, b: y, t })
        }
        (I::Addi(rd, rs, imm), I::Jz(r, t)) if r == rd => match (i32::try_from(imm), narrow(t)) {
            (Ok(imm), Some(t)) => Some(FusedOp::AddiJz { rd, rs, imm, t }),
            _ => None,
        },
        (I::Addi(rd, rs, imm), I::Jnz(r, t)) if r == rd => match (i32::try_from(imm), narrow(t)) {
            (Ok(imm), Some(t)) => Some(FusedOp::AddiJnz { rd, rs, imm, t }),
            _ => None,
        },
        (I::Addi(rd, rs, imm), I::Jmp(t)) => match (i32::try_from(imm), narrow(t)) {
            (Ok(imm), Some(t)) => Some(FusedOp::AddiJmp { rd, rs, imm, t }),
            _ => None,
        },
        (I::Li(rd, nr), I::Sys) if rd as usize == SYS_NR_REG => Some(FusedOp::LiSys(nr)),
        (I::Ld(rd, rs, off), second) => match (alu_of(second), i32::try_from(off)) {
            (Some((alu, rd2, x, y)), Ok(off)) => Some(FusedOp::LdAlu {
                alu,
                rd,
                rs,
                off,
                rd2,
                a: x,
                b: y,
            }),
            _ => None,
        },
        _ => None,
    };
    fused.unwrap_or_else(|| mirror(a))
}

/// A program rewritten for the fused engine: one [`FusedOp`] per raw code
/// index, built once per decoded image and shared (`Arc`) by every process
/// executing those bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedProgram {
    ops: Vec<FusedOp>,
}

impl FusedProgram {
    /// Rewrites `code`, fusing every hot adjacent pair independently per
    /// start index.
    #[must_use]
    pub fn fuse(code: &[Insn]) -> FusedProgram {
        let ops = (0..code.len())
            .map(|i| fuse_pair(code[i], code.get(i + 1).copied()))
            .collect();
        FusedProgram { ops }
    }

    /// The op at a raw pc, for tests.
    #[must_use]
    pub fn op_at(&self, pc: usize) -> Option<FusedOp> {
        self.ops.get(pc).copied()
    }
}

/// The in-loop answer table for one burst: the router's [`FastSpec`] — its
/// verdict on which stateless, read-mostly calls (`getpid`,
/// `gettimeofday`) may be answered without leaving the loop, the vDSO of
/// this machine — plus the cost and clock state needed to charge each
/// answer exactly as the kernel's handler would. The default table answers
/// nothing: every trap ends the burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnswerTable {
    /// The router's per-number verdicts.
    pub spec: FastSpec,
    /// The process id — the `getpid` answer.
    pub pid: u64,
    /// Base virtual cost of one `getpid`, from the machine profile.
    pub getpid_cost_ns: u64,
    /// Base virtual cost of one `gettimeofday`, from the machine profile.
    pub gtod_cost_ns: u64,
    /// Virtual nanoseconds charged per retired instruction.
    pub insn_ns: u64,
    /// Virtual-clock reading (elapsed ns) at burst entry.
    pub clock_base_ns: u64,
    /// Virtual epoch in seconds, added to `gettimeofday` answers.
    pub epoch_secs: i64,
}

/// One fused burst: the exact totals of consecutive turns executed back to
/// back without syncing the machine state between them, where a turn ends
/// on slice expiry or on a trap answered from the [`AnswerTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedBurst {
    /// Constituents retired across the whole burst (answered traps
    /// included).
    pub retired: u64,
    /// Turns consumed, including the final (ending) one.
    pub turns: u64,
    /// Turns before the final one that ran a whole slice: every expired
    /// turn, plus each answered-trap turn whose trap was the slice's last
    /// instruction. Each is one involuntary context switch.
    pub full_turns: u64,
    /// Constituents retired by the final turn alone.
    pub end_turn_retired: u64,
    /// Why the burst stopped, in
    /// [`run_slice`](crate::machine::run_slice)'s terms.
    pub end: SliceEnd,
    /// Total virtual base cost of the answered calls.
    pub cost_ns: u64,
    /// `getpid` traps answered.
    pub direct_getpid: u64,
    /// `gettimeofday` traps answered.
    pub direct_gtod: u64,
}

impl FusedBurst {
    /// Traps answered in-loop; each is one syscall and one voluntary
    /// context switch.
    #[must_use]
    pub fn answered(&self) -> u64 {
        self.direct_getpid + self.direct_gtod
    }
}

impl From<SliceResult> for FusedBurst {
    /// A one-turn burst that answered nothing — how a plain-engine slice
    /// reads in burst terms.
    fn from(r: SliceResult) -> FusedBurst {
        FusedBurst {
            retired: r.retired,
            turns: 1,
            full_turns: 0,
            end_turn_retired: r.retired,
            end: r.end,
            cost_ns: 0,
            direct_getpid: 0,
            direct_gtod: 0,
        }
    }
}

/// The `gettimeofday` answer at virtual time `vns`, written through the
/// guest pointers exactly as the kernel's handler writes them. Kept out of
/// line so the dispatch loop stays compact.
#[inline(never)]
fn gettimeofday_at(t: &AnswerTable, vns: u64, args: &RawArgs, mem: &mut AddressSpace) -> SysResult {
    let now = Timeval {
        sec: t.epoch_secs + (vns / 1_000_000_000) as i64,
        usec: ((vns % 1_000_000_000) / 1_000) as i64,
    };
    if args[0] != 0 {
        mem.write_struct(args[0], &now)?;
    }
    if args[1] != 0 {
        mem.write_struct(args[1], &Timezone::default())?;
    }
    Ok([0, 0])
}

/// Runs up to `max` constituents as consecutive `slice`-sized turns in one
/// call, keeping the pc and register file in host locals across turn
/// boundaries. Bit-identical to calling the reference
/// [`run_slice`](crate::machine::run_slice) over the unfused code in a loop
/// with budget `min(slice, max - retired_so_far)` until a turn ends in
/// anything but [`SliceEnd::Expired`]: turn boundaries land on the same
/// retired counts, so a superinstruction pair straddling a boundary splits
/// and retires only its first constituent, exactly where the reference's
/// slice expires (and a split pair is not a fusion hit). With
/// `max <= slice` it runs exactly one turn.
///
/// Every instruction, plain or either half of a pair, executes through
/// the reference's [`exec`], so the burst adds dispatch and accounting but
/// no semantics of its own.
///
/// A trap whose number `table` marks answerable is answered right here
/// instead of ending the burst: the result lands in the return registers,
/// the call's base cost is added to [`FusedBurst::cost_ns`], and the trap
/// ends its turn exactly as a dispatched trap would. `gettimeofday` reads
/// `clock_base_ns + retired·insn_ns + cost_so_far`, the clock the kernel's
/// handler would read, because the scheduler charges each turn's
/// instructions before dispatching its trap and the handler charges the
/// call's base cost before reading the clock. A trap that would exhaust
/// the budget is not answered, so the caller routes it at the same clock
/// point as usual.
///
/// The scheduler uses this to amortise its per-turn round (runnable pick,
/// process-table lookup, clock and rusage bookkeeping) over whole compute
/// and answered-trap bursts when nothing — timer, wakeup, other runnable
/// process, observer — could preempt between turns.
#[allow(clippy::too_many_lines)]
pub fn run_burst_fused(
    vm: &mut VmState,
    mem: &mut AddressSpace,
    prog: &FusedProgram,
    slice: u64,
    max: u64,
    table: &AnswerTable,
    hits: &mut [u64; FUSED_KINDS],
) -> FusedBurst {
    let mut pc = vm.pc;
    // Turn bookkeeping: the current turn ends at `turn_end` constituents
    // into the burst, and `room` counts what it has left, so the hot arms
    // update one counter and the constituents retired so far are
    // `retired!()`.
    let mut turns = 1u64;
    let mut full_turns = 0u64;
    let mut turn_start = 0u64;
    let mut turn_end = slice.min(max);
    let mut room = turn_end;
    macro_rules! retired {
        () => {
            turn_end - room
        };
    }
    // Answer-table totals.
    let nr_getpid = Sysno::Getpid.number();
    let nr_gtod = Sysno::Gettimeofday.number();
    let mut cost_ns = 0u64;
    let mut direct = [0u64; 2];
    // Local hit counters, flushed into `hits` on every exit, so the hot
    // arms bump a register instead of writing through the borrow.
    let mut h = [0u64; FUSED_KINDS];
    let mut regs = vm.regs;

    // Syncs the locals back into `vm` and returns. `$halt` adds the halt's
    // pseudo-step, which `step` counts in `insns_retired` but not in the
    // slice's `retired`. On a fault the pc stays parked at the faulting
    // (super)instruction, which at that point has retired none of its
    // constituents — identical to the plain engine. Each burst finishes
    // once, so every exit is marked cold and the answered-trap path falls
    // straight back into the loop.
    macro_rules! finish {
        ($end:expr) => {
            finish!($end, 0)
        };
        ($end:expr, $halt:expr) => {{
            std::hint::cold_path();
            let retired = retired!();
            vm.pc = pc;
            vm.regs = regs;
            vm.insns_retired += retired + $halt;
            for (total, local) in hits.iter_mut().zip(h.iter()) {
                *total += local;
            }
            return FusedBurst {
                retired,
                turns,
                full_turns,
                end_turn_retired: retired - turn_start,
                end: $end,
                cost_ns,
                direct_getpid: direct[0],
                direct_gtod: direct[1],
            };
        }};
    }
    // A retired trap (pc already past it): answer it from the table and
    // start the next turn, or end the burst with it.
    macro_rules! trap {
        () => {{
            let nr = regs[SYS_NR_REG] as u32;
            let args = [regs[0], regs[1], regs[2], regs[3], regs[4], regs[5]];
            let retired = retired!();
            if retired >= max {
                finish!(SliceEnd::Syscall { nr, args });
            }
            let ret = if nr == nr_getpid && table.spec.getpid {
                cost_ns += table.getpid_cost_ns;
                Ok([table.pid, 0])
            } else if nr == nr_gtod && table.spec.gtod {
                cost_ns += table.gtod_cost_ns;
                let vns = table.clock_base_ns + retired * table.insn_ns + cost_ns;
                gettimeofday_at(table, vns, &args, mem)
            } else {
                finish!(SliceEnd::Syscall { nr, args });
            };
            set_sysret(&mut regs, ret);
            direct[usize::from(nr != nr_getpid)] += 1;
            // The answered trap ends its turn; the next one starts here.
            if retired - turn_start == slice {
                full_turns += 1;
            }
            turns += 1;
            turn_start = retired;
            room = slice.min(max - retired);
            turn_end = retired + room;
            continue;
        }};
    }
    // One plain instruction.
    macro_rules! plain {
        ($insn:expr) => {
            match exec(&mut regs, &mut pc, mem, $insn) {
                Exec::Next => room -= 1,
                Exec::Trap => {
                    room -= 1;
                    trap!();
                }
                Exec::Halt => {
                    vm.halted = true;
                    finish!(SliceEnd::Halted, 1);
                }
                Exec::Fault(sig) => finish!(SliceEnd::Fault(sig)),
            }
        };
    }
    // One superinstruction: two reference instructions behind one
    // dispatch. Only the first can fault and only the second can trap.
    macro_rules! pair {
        ($kind:ident, $first:expr, $second:expr) => {{
            if let Exec::Fault(sig) = exec(&mut regs, &mut pc, mem, $first) {
                finish!(SliceEnd::Fault(sig));
            }
            room -= 2;
            h[FusedKind::$kind as usize] += 1;
            if exec(&mut regs, &mut pc, mem, $second) == Exec::Trap {
                trap!();
            }
        }};
    }

    if vm.halted {
        finish!(SliceEnd::Halted);
    }
    loop {
        // One headroom compare guards the whole cold edge: turn rollover
        // (no budget left) and pair splitting (one left). The hot path
        // falls through with at least two constituents of headroom, so the
        // dispatch arms below never re-check the budget. The edge is marked
        // cold so that the hot path runs straight from the compare to the
        // dispatch: left to itself, rustc laid the edge between them, and
        // BENCH_1's default rows then swung ~10% with code alignment.
        if room < 2 {
            std::hint::cold_path();
            if room == 0 {
                // The turn expired: end the burst when the total budget is
                // spent, else roll straight into the next (full) turn.
                if turn_end >= max {
                    finish!(SliceEnd::Expired);
                }
                turns += 1;
                full_turns += 1;
                turn_start = turn_end;
                room = slice.min(max - turn_end);
                turn_end += room;
                continue;
            }
            // Exactly one constituent of budget left in this turn.
            let Some(&op) = prog.ops.get(pc as usize) else {
                finish!(SliceEnd::Fault(Signal::SIGSEGV));
            };
            if let Some(insn) = op.first_constituent() {
                // The turn's budget can't cover the pair: retire exactly
                // its first constituent and let the loop head expire the
                // turn — the same split point the plain engine's slice
                // hits.
                if let Exec::Fault(sig) = exec(&mut regs, &mut pc, mem, insn) {
                    finish!(SliceEnd::Fault(sig));
                }
                room -= 1;
                continue;
            }
            // A plain slot with one budget left dispatches normally.
        }
        let Some(&op) = prog.ops.get(pc as usize) else {
            finish!(SliceEnd::Fault(Signal::SIGSEGV));
        };
        use FusedOp as F;
        use Insn as I;
        match op {
            F::Li(rd, v) => plain!(I::Li(rd, v)),
            F::Mov(rd, rs) => plain!(I::Mov(rd, rs)),
            F::Ld(rd, rs, off) => plain!(I::Ld(rd, rs, off)),
            F::St(rd, rs, off) => plain!(I::St(rd, rs, off)),
            F::Ldb(rd, rs, off) => plain!(I::Ldb(rd, rs, off)),
            F::Stb(rd, rs, off) => plain!(I::Stb(rd, rs, off)),
            F::Add(rd, a, b) => plain!(I::Add(rd, a, b)),
            F::Sub(rd, a, b) => plain!(I::Sub(rd, a, b)),
            F::Mul(rd, a, b) => plain!(I::Mul(rd, a, b)),
            F::Div(rd, a, b) => plain!(I::Div(rd, a, b)),
            F::Rem(rd, a, b) => plain!(I::Rem(rd, a, b)),
            F::Addi(rd, rs, imm) => plain!(I::Addi(rd, rs, imm)),
            F::And(rd, a, b) => plain!(I::And(rd, a, b)),
            F::Or(rd, a, b) => plain!(I::Or(rd, a, b)),
            F::Xor(rd, a, b) => plain!(I::Xor(rd, a, b)),
            F::Shl(rd, a, b) => plain!(I::Shl(rd, a, b)),
            F::Shr(rd, a, b) => plain!(I::Shr(rd, a, b)),
            F::Sltu(rd, a, b) => plain!(I::Sltu(rd, a, b)),
            F::Slt(rd, a, b) => plain!(I::Slt(rd, a, b)),
            F::Seq(rd, a, b) => plain!(I::Seq(rd, a, b)),
            F::Jmp(t) => plain!(I::Jmp(t)),
            F::Jz(rs, t) => plain!(I::Jz(rs, t)),
            F::Jnz(rs, t) => plain!(I::Jnz(rs, t)),
            F::Call(t) => plain!(I::Call(t)),
            F::Ret => plain!(I::Ret),
            F::Sys => plain!(I::Sys),
            F::Halt => plain!(I::Halt),
            F::Nop => plain!(I::Nop),
            F::SeqJz { rd, a, b, t } => pair!(CmpBranch, I::Seq(rd, a, b), I::Jz(rd, t.into())),
            F::SeqJnz { rd, a, b, t } => pair!(CmpBranch, I::Seq(rd, a, b), I::Jnz(rd, t.into())),
            F::SltuJz { rd, a, b, t } => pair!(CmpBranch, I::Sltu(rd, a, b), I::Jz(rd, t.into())),
            F::SltuJnz { rd, a, b, t } => {
                pair!(CmpBranch, I::Sltu(rd, a, b), I::Jnz(rd, t.into()));
            }
            F::SltJz { rd, a, b, t } => pair!(CmpBranch, I::Slt(rd, a, b), I::Jz(rd, t.into())),
            F::SltJnz { rd, a, b, t } => pair!(CmpBranch, I::Slt(rd, a, b), I::Jnz(rd, t.into())),
            F::AddiJz { rd, rs, imm, t } => {
                pair!(AddiBranch, I::Addi(rd, rs, imm.into()), I::Jz(rd, t.into()));
            }
            F::AddiJnz { rd, rs, imm, t } => {
                pair!(
                    AddiBranch,
                    I::Addi(rd, rs, imm.into()),
                    I::Jnz(rd, t.into())
                );
            }
            F::AddiJmp { rd, rs, imm, t } => {
                pair!(AddiJmp, I::Addi(rd, rs, imm.into()), I::Jmp(t.into()));
            }
            F::LiSys(nr) => pair!(LiSys, I::Li(SYS_NR_REG as u8, nr), I::Sys),
            F::LdAlu {
                alu,
                rd,
                rs,
                off,
                rd2,
                a,
                b,
            } => {
                let ld = I::Ld(rd, rs, off.into());
                match alu {
                    Alu::Add => pair!(LdAlu, ld, I::Add(rd2, a, b)),
                    Alu::Sub => pair!(LdAlu, ld, I::Sub(rd2, a, b)),
                    Alu::Mul => pair!(LdAlu, ld, I::Mul(rd2, a, b)),
                    Alu::And => pair!(LdAlu, ld, I::And(rd2, a, b)),
                    Alu::Or => pair!(LdAlu, ld, I::Or(rd2, a, b)),
                    Alu::Xor => pair!(LdAlu, ld, I::Xor(rd2, a, b)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{Reg, NREGS, SP};
    use crate::machine::run_slice;
    use ia_prng::Prng;
    use Insn::*;

    /// One fused turn of at most `max` constituents, answering nothing:
    /// the fused counterpart of [`run_slice`].
    fn run_slice_fused(
        vm: &mut VmState,
        mem: &mut AddressSpace,
        prog: &FusedProgram,
        max: u64,
        hits: &mut [u64; FUSED_KINDS],
    ) -> SliceResult {
        let b = run_burst_fused(vm, mem, prog, max, max, &AnswerTable::default(), hits);
        SliceResult {
            retired: b.retired,
            end: b.end,
        }
    }

    /// A machine to start a differential run from.
    #[derive(Clone)]
    struct Start {
        vm: VmState,
        mem: AddressSpace,
    }

    /// The zeroed 4 KiB machine the directed cases start from.
    fn fresh() -> Start {
        Start {
            vm: VmState::new(0, 4096),
            mem: AddressSpace::new(4096, 64),
        }
    }

    fn assert_same_memory(a: &AddressSpace, b: &AddressSpace, what: &str) {
        let (a, b) = (a.read_bytes(0, a.size()), b.read_bytes(0, b.size()));
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.len(), b.len(), "memory size diverged {what}");
        if let Some(at) = a.iter().zip(b.iter()).position(|(x, y)| x != y) {
            panic!("memory diverged at {at} {what}");
        }
    }

    /// Runs `code` from `start` under both engines with the given slice
    /// budget for at most `turns` turns, dispatching every trap with a
    /// canned `Ok([7, 0])` sysret, and asserts the full machine state and
    /// every slice result agree — the vm-level differential oracle.
    /// Returns the fused hit counters once the program halts or faults, or
    /// `None` if it is still running after `turns` turns.
    fn assert_engines_agree(
        code: &[Insn],
        start: &Start,
        budget: u64,
        turns: u64,
    ) -> Option<[u64; FUSED_KINDS]> {
        let prog = FusedProgram::fuse(code);
        let mut hits = [0u64; FUSED_KINDS];
        let Start {
            vm: mut vm_p,
            mem: mut mem_p,
        } = start.clone();
        let Start {
            vm: mut vm_f,
            mem: mut mem_f,
        } = start.clone();
        for turn in 0..turns {
            let rp = run_slice(&mut vm_p, &mut mem_p, code, budget);
            let rf = run_slice_fused(&mut vm_f, &mut mem_f, &prog, budget, &mut hits);
            assert_eq!(
                rp, rf,
                "slice result diverged at turn {turn} (budget {budget})"
            );
            assert_eq!(
                vm_p, vm_f,
                "vm state diverged at turn {turn} (budget {budget})"
            );
            assert_same_memory(&mem_p, &mem_f, &format!("on turn {turn}"));
            match rp.end {
                SliceEnd::Expired => {}
                SliceEnd::Syscall { .. } => {
                    vm_p.apply_sysret(Ok([7, 0]));
                    vm_f.apply_sysret(Ok([7, 0]));
                }
                SliceEnd::Halted | SliceEnd::Fault(_) => return Some(hits),
            }
        }
        None
    }

    fn diff_all_budgets(code: &[Insn]) -> [u64; FUSED_KINDS] {
        let mut last = [0; FUSED_KINDS];
        for budget in [1, 2, 3, 5, 7, 100] {
            last = assert_engines_agree(code, &fresh(), budget, 100_000)
                .expect("program did not finish in 100k turns");
        }
        last
    }

    /// The BENCH_1 compute loop: countdown with an `addi`+`jmp` back edge.
    fn compute_loop(iters: u64) -> Vec<Insn> {
        vec![
            Li(13, iters),
            Jz(13, 4),
            Addi(13, 13, -1),
            Jmp(1),
            Li(7, 1), // exit
            Sys,
            Halt,
        ]
    }

    #[test]
    fn fused_op_stays_sixteen_bytes() {
        // One flat enum, as small as `Insn`: wrapping the plain ops in a
        // variant of their own lowers the dispatch to two jump tables.
        assert_eq!(std::mem::size_of::<FusedOp>(), 16);
        assert_eq!(std::mem::size_of::<Insn>(), 16);
    }

    #[test]
    fn fusion_finds_the_expected_sites() {
        let prog = FusedProgram::fuse(&compute_loop(10));
        // addi+jmp back edge and li r7 + sys both fuse.
        assert_eq!(
            prog.op_at(2),
            Some(FusedOp::AddiJmp {
                rd: 13,
                rs: 13,
                imm: -1,
                t: 1
            })
        );
        assert_eq!(prog.op_at(4), Some(FusedOp::LiSys(1)));
        // The slot after a pair start still holds its own plain mirror.
        assert_eq!(prog.op_at(3), Some(FusedOp::Jmp(1)));
        assert_eq!(prog.op_at(5), Some(FusedOp::Sys));
    }

    #[test]
    fn li_to_other_register_does_not_fuse_with_sys() {
        let prog = FusedProgram::fuse(&[Li(0, 1), Sys, Halt]);
        assert_eq!(prog.op_at(0), Some(FusedOp::Li(0, 1)));
    }

    #[test]
    fn out_of_range_fields_fall_back_to_plain() {
        // Branch target beyond u32 and an addi immediate beyond i32.
        let code = [
            Seq(1, 2, 3),
            Jz(1, u64::from(u32::MAX) + 1),
            Addi(4, 4, i64::from(i32::MAX) + 1),
            Jmp(0),
        ];
        let prog = FusedProgram::fuse(&code);
        assert_eq!(prog.op_at(0), Some(FusedOp::Seq(1, 2, 3)));
        assert_eq!(
            prog.op_at(2),
            Some(FusedOp::Addi(4, 4, i64::from(i32::MAX) + 1))
        );
    }

    #[test]
    fn compute_loop_agrees_and_counts_hits() {
        let hits = diff_all_budgets(&compute_loop(37));
        assert!(hits[FusedKind::AddiJmp as usize] > 0);
    }

    #[test]
    fn cmp_branch_families_agree() {
        type Cmp = fn(Reg, Reg, Reg) -> Insn;
        type Br = fn(Reg, u64) -> Insn;
        let families: [(Cmp, Br); 6] = [
            (Seq, Jz),
            (Seq, Jnz),
            (Sltu, Jz),
            (Sltu, Jnz),
            (Slt, Jz),
            (Slt, Jnz),
        ];
        for (cmp, j) in families {
            // Count r12 from 0 to 9, comparing against r11 = 5 each lap so
            // both branch outcomes of every family are exercised.
            let code = [
                Li(11, 5),
                Li(10, 9),
                Li(12, 0),
                cmp(1, 12, 11),
                j(1, 6),
                Nop,
                Addi(12, 12, 1),
                Seq(2, 12, 10),
                Jnz(2, 10),
                Jmp(3),
                Halt,
            ];
            let hits = diff_all_budgets(&code);
            assert!(hits[FusedKind::CmpBranch as usize] > 0);
        }
    }

    #[test]
    fn addi_branch_countdown_agrees() {
        let code = [Li(13, 8), Addi(13, 13, -1), Jnz(13, 1), Halt];
        let hits = diff_all_budgets(&code);
        assert!(hits[FusedKind::AddiBranch as usize] > 0);
    }

    #[test]
    fn trap_loop_agrees() {
        // getpid-style trap loop: li r7 + sys fused, dispatched per trap.
        let code = [Li(13, 6), Li(7, 2), Sys, Addi(13, 13, -1), Jnz(13, 1), Halt];
        let hits = diff_all_budgets(&code);
        assert!(hits[FusedKind::LiSys as usize] > 0);
    }

    #[test]
    fn ld_alu_agrees_including_fault() {
        // Sum a 4-word array at 64, then fault on a wild load+add pair.
        let code = [
            Li(1, 64),
            Li(2, 0), // sum
            Li(3, 4), // remaining
            Ld(4, 1, 0),
            Add(2, 2, 4),
            Addi(1, 1, 8),
            Addi(3, 3, -1),
            Jnz(3, 3),
            Li(1, 1 << 40),
            Ld(4, 1, 0),
            Add(2, 2, 4),
            Halt,
        ];
        let mut seed_mem = AddressSpace::new(4096, 64);
        for (i, v) in [3u64, 5, 7, 11].iter().enumerate() {
            seed_mem.write_u64(64 + 8 * i as u64, *v).unwrap();
        }
        // Differential harness with its own memory: write the array via code
        // instead, to keep both sides identical.
        let mut full = vec![
            Li(1, 64),
            Li(5, 3),
            St(1, 5, 0),
            Li(5, 5),
            St(1, 5, 8),
            Li(5, 7),
            St(1, 5, 16),
            Li(5, 11),
            St(1, 5, 24),
        ];
        full.extend_from_slice(&code);
        // Fix up jump targets shifted by the 9-insn prologue.
        for insn in &mut full[9..] {
            if let Jnz(r, t) = *insn {
                *insn = Jnz(r, t + 9);
            }
        }
        let hits = diff_all_budgets(&full);
        assert!(hits[FusedKind::LdAlu as usize] > 0);
    }

    #[test]
    fn branch_into_the_middle_of_a_pair_agrees() {
        // `jmp 3` lands on the `jmp` half of the fused addi+jmp at index 2.
        let code = [
            Li(13, 3),
            Jz(13, 6),
            Addi(13, 13, -1),
            Jmp(1),
            Nop,
            Jmp(3), // never reached in this program shape, but fused view must hold
            Halt,
        ];
        let prog = FusedProgram::fuse(&code);
        assert!(matches!(prog.op_at(2), Some(FusedOp::AddiJmp { .. })));
        assert_eq!(prog.op_at(3), Some(FusedOp::Jmp(1)));
        diff_all_budgets(&code);
        // And a program that actually enters at the pair's second half.
        let enter_mid = [
            Li(13, 2),
            Jmp(4), // jump straight to the `jmp` inside the pair below
            Addi(13, 13, -1),
            Jz(13, 6),
            Jmp(2),
            Nop,
            Halt,
        ];
        diff_all_budgets(&enter_mid);
    }

    #[test]
    fn division_by_zero_and_call_ret_agree() {
        let code = [
            Li(0, 10),
            Call(5),
            Li(1, 0),
            Div(2, 0, 1),
            Halt,
            Addi(0, 0, 1),
            Ret,
        ];
        diff_all_budgets(&code);
    }

    #[test]
    fn halt_counts_like_the_plain_engine() {
        let prog = FusedProgram::fuse(&[Halt]);
        let mut vm = VmState::new(0, 256);
        let mut mem = AddressSpace::new(256, 0);
        let mut hits = [0; FUSED_KINDS];
        let r = run_slice_fused(&mut vm, &mut mem, &prog, 100, &mut hits);
        assert_eq!(
            r,
            SliceResult {
                retired: 0,
                end: SliceEnd::Halted
            }
        );
        assert_eq!(vm.insns_retired, 1, "halt retires in insns_retired only");
        // A halted machine stays halted and retires nothing further.
        let r2 = run_slice_fused(&mut vm, &mut mem, &prog, 100, &mut hits);
        assert_eq!(
            r2,
            SliceResult {
                retired: 0,
                end: SliceEnd::Halted
            }
        );
        assert_eq!(vm.insns_retired, 1);
    }

    /// The directed slice-boundary test: a superinstruction pair that
    /// straddles the budget must split, retiring exactly the first
    /// constituent — identical clock charge to the plain engine.
    #[test]
    fn superinstruction_split_at_slice_boundary_charges_identically() {
        // pc 0..=2 are nops; the fused addi+jmp pair starts at pc 3.
        let code = [Nop, Nop, Nop, Addi(13, 13, 5), Jmp(0)];
        let prog = FusedProgram::fuse(&code);
        assert!(matches!(prog.op_at(3), Some(FusedOp::AddiJmp { .. })));

        let mut vm = VmState::new(0, 256);
        let mut mem = AddressSpace::new(256, 0);
        let mut hits = [0; FUSED_KINDS];
        // Budget 4: three nops + only the addi half of the pair.
        let r = run_slice_fused(&mut vm, &mut mem, &prog, 4, &mut hits);
        assert_eq!(
            r,
            SliceResult {
                retired: 4,
                end: SliceEnd::Expired
            }
        );
        assert_eq!(vm.pc, 4, "pc parked on the jmp half");
        assert_eq!(vm.regs[13], 5, "addi half executed");
        assert_eq!(vm.insns_retired, 4);
        assert_eq!(hits, [0; FUSED_KINDS], "a split pair is not a fusion hit");

        // The plain engine lands in the identical state.
        let mut vm_p = VmState::new(0, 256);
        let mut mem_p = AddressSpace::new(256, 0);
        let rp = run_slice(&mut vm_p, &mut mem_p, &code, 4);
        assert_eq!(rp, r);
        assert_eq!(vm_p, vm);

        // Resuming finishes the pair: the jmp half retires on its own.
        let r2 = run_slice_fused(&mut vm, &mut mem, &prog, 1, &mut hits);
        let rp2 = run_slice(&mut vm_p, &mut mem_p, &code, 1);
        assert_eq!(r2, rp2);
        assert_eq!(vm, vm_p);
        assert_eq!(vm.pc, 0);
    }

    #[test]
    fn split_pair_with_faulting_first_constituent_agrees() {
        // Wild ld+add pair at pc 1; budget 2 forces the split path, where
        // the ld faults through the reference stepper.
        let code = [Nop, Ld(4, 9, 1 << 30), Add(2, 2, 4), Halt];
        let prog = FusedProgram::fuse(&code);
        assert!(matches!(prog.op_at(1), Some(FusedOp::LdAlu { .. })));
        let mut vm = VmState::new(0, 256);
        let mut mem = AddressSpace::new(256, 0);
        let mut hits = [0; FUSED_KINDS];
        let r = run_slice_fused(&mut vm, &mut mem, &prog, 2, &mut hits);
        assert_eq!(
            r,
            SliceResult {
                retired: 1,
                end: SliceEnd::Fault(Signal::SIGSEGV)
            }
        );
        assert_eq!(vm.pc, 1, "pc parked on the faulting load");
        assert_eq!(vm.insns_retired, 1);
        let mut vm_p = VmState::new(0, 256);
        let mut mem_p = AddressSpace::new(256, 0);
        assert_eq!(run_slice(&mut vm_p, &mut mem_p, &code, 2), r);
        assert_eq!(vm_p, vm);
    }

    #[test]
    fn running_off_the_end_faults_identically() {
        diff_all_budgets(&[Nop, Nop]);
    }

    /// Runs `code` from `start` to the first non-`Expired` end, or until
    /// `max` constituents retire, under (a) one [`run_burst_fused`] call
    /// and (b) a loop of [`run_slice_fused`] turns, asserting identical
    /// machine state, totals, hit counters and turn counts — the
    /// burst-vs-turns oracle.
    fn assert_burst_matches_turn_loop(code: &[Insn], start: &Start, slice: u64, max: u64) {
        let prog = FusedProgram::fuse(code);

        let Start {
            vm: mut vm_b,
            mem: mut mem_b,
        } = start.clone();
        let mut hits_b = [0u64; FUSED_KINDS];
        let burst = run_burst_fused(
            &mut vm_b,
            &mut mem_b,
            &prog,
            slice,
            max,
            &AnswerTable::default(),
            &mut hits_b,
        );

        let Start {
            vm: mut vm_t,
            mem: mut mem_t,
        } = start.clone();
        let mut hits_t = [0u64; FUSED_KINDS];
        let mut retired = 0u64;
        let mut turns = 0u64;
        let last = loop {
            let budget = slice.min(max - retired);
            let r = run_slice_fused(&mut vm_t, &mut mem_t, &prog, budget, &mut hits_t);
            retired += r.retired;
            turns += 1;
            if r.end != SliceEnd::Expired || retired >= max {
                break r;
            }
        };

        assert_eq!(burst.retired, retired, "total retired diverged");
        assert_eq!(burst.turns, turns, "turn count diverged");
        assert_eq!(burst.full_turns, turns - 1, "only expiry continues");
        assert_eq!(burst.end, last.end, "end event diverged");
        assert_eq!(burst.end_turn_retired, last.retired, "final turn diverged");
        assert_eq!(hits_b, hits_t, "fusion hit counters diverged");
        assert_eq!(vm_b, vm_t, "vm state diverged");
        assert_same_memory(&mem_b, &mem_t, "after the burst");
    }

    #[test]
    fn burst_matches_a_loop_of_single_turns() {
        // 7 constituents per lap (co-prime with slice 100), so fused pairs
        // straddle turn boundaries and exercise the mid-burst split path.
        let code = [
            Li(13, 5000),
            Ld(4, 14, 64),
            Add(4, 4, 13),
            Addi(13, 13, -1),
            Jnz(13, 1),
            Li(7, 1),
            Sys,
            Halt,
        ];
        assert_burst_matches_turn_loop(&code, &fresh(), 100, u64::MAX);
        // Odd slice lengths shift the boundary phase.
        assert_burst_matches_turn_loop(&code, &fresh(), 7, u64::MAX);
        assert_burst_matches_turn_loop(&code, &fresh(), 3, u64::MAX);
    }

    #[test]
    fn burst_step_budget_cuts_off_mid_run_like_the_turn_loop() {
        let code = [Li(13, 900), Addi(13, 13, -1), Jnz(13, 1), Halt];
        // Budgets that end mid-turn, on a turn edge, and mid-split-pair.
        for max in [1, 2, 99, 100, 101, 150, 199, 200, 1000] {
            assert_burst_matches_turn_loop(&code, &fresh(), 100, max);
        }
    }

    #[test]
    fn burst_to_halt_counts_turns_and_the_trailing_pseudo_step() {
        let code = [Li(13, 149), Addi(13, 13, -1), Jnz(13, 1), Halt];
        let prog = FusedProgram::fuse(&code);
        let mut vm = VmState::new(0, 256);
        let mut mem = AddressSpace::new(256, 0);
        let mut hits = [0u64; FUSED_KINDS];
        let b = run_burst_fused(
            &mut vm,
            &mut mem,
            &prog,
            100,
            u64::MAX,
            &AnswerTable::default(),
            &mut hits,
        );
        // 1 li + 149 fused countdown pairs = 299 retired over three turns.
        assert_eq!(b.retired, 299);
        assert_eq!(b.turns, 3);
        assert_eq!(b.end_turn_retired, 99);
        assert_eq!(b.end, SliceEnd::Halted);
        assert!(vm.halted);
        assert_eq!(vm.insns_retired, 300, "halt adds the pseudo-step");
    }

    fn table(getpid: bool, gtod: bool) -> AnswerTable {
        AnswerTable {
            spec: FastSpec { getpid, gtod },
            pid: 42,
            getpid_cost_ns: 25_000,
            gtod_cost_ns: 47_000,
            insn_ns: 5_000,
            clock_base_ns: 3_000_000_000,
            epoch_secs: 600_000_000,
        }
    }

    fn nr(s: Sysno) -> u64 {
        u64::from(s.number())
    }

    /// Compute mixed with `getpid` and `gettimeofday(&tv, 0)`, then a
    /// trap the table never answers (`exit`).
    fn mixed_trap_loop() -> Vec<Insn> {
        vec![
            Li(13, 40),
            Addi(13, 13, -1), // 1: outer loop
            Li(7, nr(Sysno::Getpid)),
            Sys,
            Add(6, 6, 0),
            Li(0, 256),
            Li(1, 0),
            Li(7, nr(Sysno::Gettimeofday)),
            Sys,
            Li(9, 256),
            Ld(4, 9, 8),
            Add(5, 5, 4),
            Li(12, 9),
            Addi(12, 12, -1), // 13: inner compute loop
            Jnz(12, 13),
            Jnz(13, 1),
            Li(7, 1),
            Sys,
            Halt,
        ]
    }

    /// Runs `code` from `start` as one answering burst of at most `max`
    /// constituents and as a loop of plain `run_slice` turns that answers
    /// each table-covered trap the way the kernel does (clock = entry +
    /// instructions + base costs so far), asserting identical machine
    /// state, memory, totals and turn accounting.
    fn assert_answering_burst_matches_routed_turns(
        code: &[Insn],
        start: &Start,
        slice: u64,
        max: u64,
        t: &AnswerTable,
    ) -> FusedBurst {
        let prog = FusedProgram::fuse(code);
        let Start {
            vm: mut vm_b,
            mem: mut mem_b,
        } = start.clone();
        let mut hits = [0u64; FUSED_KINDS];
        let b = run_burst_fused(&mut vm_b, &mut mem_b, &prog, slice, max, t, &mut hits);

        let Start { mut vm, mut mem } = start.clone();
        let (mut retired, mut cost, mut turns, mut full, mut answered) = (0, 0, 0, 0, 0);
        let last = loop {
            let r = run_slice(&mut vm, &mut mem, code, slice.min(max - retired));
            retired += r.retired;
            turns += 1;
            if retired >= max {
                break r;
            }
            let SliceEnd::Syscall { nr: n, args } = r.end else {
                if r.end != SliceEnd::Expired {
                    break r;
                }
                full += 1;
                continue;
            };
            let ret = if n == Sysno::Getpid.number() && t.spec.getpid {
                cost += t.getpid_cost_ns;
                Ok([t.pid, 0])
            } else if n == Sysno::Gettimeofday.number() && t.spec.gtod {
                cost += t.gtod_cost_ns;
                let vns = t.clock_base_ns + retired * t.insn_ns + cost;
                gettimeofday_at(t, vns, &args, &mut mem)
            } else {
                break r;
            };
            vm.apply_sysret(ret);
            answered += 1;
            if r.retired == slice {
                full += 1;
            }
        };

        assert_eq!(b.end, last.end, "end event diverged (slice {slice})");
        assert_eq!(b.retired, retired, "retired diverged (slice {slice})");
        assert_eq!(b.turns, turns, "turns diverged (slice {slice})");
        assert_eq!(b.full_turns, full, "full turns diverged (slice {slice})");
        assert_eq!(b.end_turn_retired, last.retired);
        assert_eq!(b.answered(), answered);
        assert_eq!(b.cost_ns, cost);
        assert_eq!(vm_b, vm, "vm state diverged (slice {slice})");
        assert_same_memory(&mem_b, &mem, "after the answering burst");
        b
    }

    #[test]
    fn answering_burst_matches_routing_every_trap() {
        let t = table(true, true);
        for slice in [100, 7, 3, 2] {
            let b = assert_answering_burst_matches_routed_turns(
                &mixed_trap_loop(),
                &fresh(),
                slice,
                u64::MAX,
                &t,
            );
            assert_eq!(b.direct_getpid, 40);
            assert_eq!(b.direct_gtod, 40);
            assert!(
                matches!(b.end, SliceEnd::Syscall { nr: 1, .. }),
                "exit leaves the loop"
            );
        }
        // With only one number in the table, the other one ends the burst.
        let t = table(true, false);
        let b = assert_answering_burst_matches_routed_turns(
            &mixed_trap_loop(),
            &fresh(),
            100,
            u64::MAX,
            &t,
        );
        assert_eq!((b.answered(), b.direct_getpid), (1, 1));
        assert!(matches!(b.end, SliceEnd::Syscall { nr: 116, .. }));
    }

    #[test]
    fn gettimeofday_answer_reads_the_handler_clock() {
        // li r0; li r1; li r7; sys — the trap retires as the 4th
        // instruction, then the call's base cost is charged.
        let code = [
            Li(0, 256),
            Li(1, 272),
            Li(7, nr(Sysno::Gettimeofday)),
            Sys,
            Halt,
        ];
        let t = table(false, true);
        let mut vm = VmState::new(0, 4096);
        let mut mem = AddressSpace::new(4096, 64);
        let mut hits = [0u64; FUSED_KINDS];
        let b = run_burst_fused(
            &mut vm,
            &mut mem,
            &FusedProgram::fuse(&code),
            100,
            u64::MAX,
            &t,
            &mut hits,
        );
        assert_eq!(b.end, SliceEnd::Halted);
        assert_eq!((b.retired, b.turns, b.answered()), (4, 2, 1));
        let vns: u64 = 3_000_000_000 + 4 * 5_000 + 47_000;
        let tv: Timeval = mem.read_struct(256).unwrap();
        assert_eq!(tv.sec, 600_000_003);
        assert_eq!(tv.usec, ((vns % 1_000_000_000) / 1_000) as i64);
        assert_eq!(
            mem.read_struct::<Timezone>(272).unwrap(),
            Timezone::default()
        );
        assert_eq!((vm.regs[0], vm.regs[1]), (0, 0), "success sysret");
        assert_eq!(
            hits[FusedKind::LiSys as usize],
            1,
            "answered pairs still fuse"
        );
    }

    #[test]
    fn a_trap_that_spends_the_budget_is_routed_not_answered() {
        let code = [Li(7, nr(Sysno::Getpid)), Sys, Jmp(1)];
        let t = table(true, true);
        let prog = FusedProgram::fuse(&code);
        // li+sys (2), then sys+jmp laps of 2: budget 6 ends on a trap.
        let mut vm = VmState::new(0, 4096);
        let mut mem = AddressSpace::new(4096, 0);
        let mut hits = [0u64; FUSED_KINDS];
        let b = run_burst_fused(&mut vm, &mut mem, &prog, 100, 6, &t, &mut hits);
        assert_eq!(b.retired, 6);
        assert_eq!(b.answered(), 2);
        assert!(matches!(b.end, SliceEnd::Syscall { nr: 20, .. }));
        assert_eq!(vm.pc, 2, "pc past the unanswered trap");
    }

    /// Registers the random programs mostly draw from, so instructions
    /// feed each other: a few scratch registers, the syscall-number
    /// register and the stack pointer.
    const POOL: [Reg; 6] = [0, 1, 2, 3, SYS_NR_REG as Reg, SP];

    fn reg(rng: &mut Prng) -> Reg {
        if rng.below(8) == 0 {
            rng.below(NREGS as u64) as Reg
        } else {
            *rng.pick(&POOL)
        }
    }

    /// A register or memory value: zero-ish, an address inside a `size`
    /// byte space, one near its end, or anything.
    fn value(rng: &mut Prng, size: u64) -> u64 {
        match rng.below(4) {
            0 => rng.below(4),
            1 => rng.below(size),
            2 => size - rng.below(16),
            _ => rng.next_u64(),
        }
    }

    /// A load/store offset: mostly small, sometimes far enough to fault.
    fn offset(rng: &mut Prng) -> i64 {
        match rng.below(6) {
            0 => 1 << 40,
            1 => rng.next_u64() as i64,
            _ => rng.range_i64(-16, 64),
        }
    }

    /// A branch target placeholder; [`random_program`] retargets it.
    const TBD: u64 = u64::MAX;

    /// One of the five superinstruction shapes, fields drawn at random.
    fn random_pair(rng: &mut Prng) -> [Insn; 2] {
        type Cmp = fn(Reg, Reg, Reg) -> Insn;
        type Br = fn(Reg, u64) -> Insn;
        let rd = reg(rng);
        match rng.below(5) {
            0 => {
                let cmp: Cmp = *rng.pick(&[Seq as Cmp, Sltu, Slt]);
                let br: Br = *rng.pick(&[Jz as Br, Jnz]);
                [cmp(rd, reg(rng), reg(rng)), br(rd, TBD)]
            }
            1 => {
                let br: Br = *rng.pick(&[Jz as Br, Jnz]);
                [Addi(rd, reg(rng), rng.range_i64(-3, 3)), br(rd, TBD)]
            }
            2 => [Addi(rd, reg(rng), rng.range_i64(-3, 3)), Jmp(TBD)],
            3 => {
                let nr = match rng.below(4) {
                    0 => nr(Sysno::Gettimeofday),
                    1 => rng.below(200),
                    _ => nr(Sysno::Getpid),
                };
                [Li(SYS_NR_REG as Reg, nr), Sys]
            }
            _ => {
                let alu: Cmp = *rng.pick(&[Add as Cmp, Sub, Mul, And, Or, Xor]);
                [
                    Ld(rd, reg(rng), offset(rng)),
                    alu(reg(rng), reg(rng), reg(rng)),
                ]
            }
        }
    }

    /// One plain instruction, biased toward faults, control flow and
    /// memory traffic.
    fn random_insn(rng: &mut Prng, size: u64) -> Insn {
        let (a, b, c) = (reg(rng), reg(rng), reg(rng));
        match rng.below(20) {
            0 => Li(a, value(rng, size)),
            1 => Mov(a, b),
            2 => Ld(a, b, offset(rng)),
            3 => St(a, b, offset(rng)),
            4 => Ldb(a, b, offset(rng)),
            5 => Stb(a, b, offset(rng)),
            6 => Div(a, b, c),
            7 => Rem(a, b, c),
            8 => Addi(a, b, rng.range_i64(-8, 8)),
            9 => *rng.pick(&[Add(a, b, c), Sub(a, b, c), Mul(a, b, c), And(a, b, c)]),
            10 => *rng.pick(&[Or(a, b, c), Xor(a, b, c), Shl(a, b, c), Shr(a, b, c)]),
            11 => *rng.pick(&[Sltu(a, b, c), Slt(a, b, c), Seq(a, b, c)]),
            12 => *rng.pick(&[Jmp(TBD), Jz(a, TBD), Jnz(a, TBD)]),
            13 => Call(TBD),
            14 => Ret,
            15 => Sys,
            16 => Halt,
            _ => Nop,
        }
    }

    /// A random program of 2–25 instructions, about half of them in
    /// fusable pairs. Branch targets land on a pair's second slot, past
    /// the end of the code, or anywhere.
    fn random_program(rng: &mut Prng, size: u64) -> Vec<Insn> {
        let len = rng.range_usize(2, 24);
        let mut code = Vec::with_capacity(len + 1);
        let mut seconds = Vec::new();
        while code.len() < len {
            if rng.bool() {
                seconds.push(code.len() as u64 + 1);
                code.extend(random_pair(rng));
            } else {
                code.push(random_insn(rng, size));
            }
        }
        let n = code.len() as u64;
        for insn in &mut code {
            let target = match rng.below(8) {
                0..=1 if !seconds.is_empty() => *rng.pick(&seconds),
                2 => n + rng.below(2),
                _ => rng.below(n),
            };
            if let Jmp(t) | Jz(_, t) | Jnz(_, t) | Call(t) = insn {
                *t = target;
            }
        }
        code
    }

    /// A machine of a random size with random registers and a few random
    /// words of memory.
    fn random_start(rng: &mut Prng) -> Start {
        let size = *rng.pick(&[256u64, 1024, 4096]);
        let mut mem = AddressSpace::new(size as usize, 64);
        for _ in 0..rng.below(8) {
            let v = value(rng, size);
            mem.write_u64(rng.below(size - 7), v).unwrap();
        }
        let mut vm = VmState::new(0, size as usize);
        for r in 0..NREGS {
            if r != usize::from(SP) || rng.bool() {
                vm.regs[r] = value(rng, size);
            }
        }
        Start { vm, mem }
    }

    fn random_table(rng: &mut Prng) -> AnswerTable {
        AnswerTable {
            spec: FastSpec {
                getpid: rng.bool(),
                gtod: rng.bool(),
            },
            pid: rng.below(1000),
            getpid_cost_ns: rng.below(50_000),
            gtod_cost_ns: rng.below(50_000),
            insn_ns: rng.below(10_000),
            clock_base_ns: rng.below(1 << 40),
            epoch_secs: rng.below(1 << 31) as i64,
        }
    }

    /// Names the failing draw when a driver panics inside it.
    struct Draw<'a>(u64, &'a [Insn]);

    impl Drop for Draw<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("random draw {} diverged on {:?}", self.0, self.1);
            }
        }
    }

    /// The random-code differential: seeded programs biased toward the
    /// fusion shapes, branches into a pair's second slot and faulting
    /// first constituents, from random machines, through all three
    /// oracles with random slices, step budgets and answer tables. A draw
    /// that never finishes stops at the cap without failing.
    #[test]
    fn random_code_agrees_under_every_driver() {
        ia_prng::run_cases(3000, |case, rng| {
            let start = random_start(rng);
            let code = random_program(rng, start.mem.size() as u64);
            let _draw = Draw(case, &code);
            let slice = *rng.pick(&[1, 2, 3, 4, 5, 6, 7, 100]);
            let max = rng.range_u64(1, 600);
            let table = random_table(rng);
            assert_engines_agree(&code, &start, slice, 64);
            assert_burst_matches_turn_loop(&code, &start, slice, max);
            assert_answering_burst_matches_routed_turns(&code, &start, slice, max, &table);
        });
    }
}
