//! The interpreter: registers, stepping, traps and faults. [`exec`] is
//! the one definition of what each instruction does. [`run_slice`] over
//! [`step`] is the plain reference engine, where every trap leaves the
//! loop; the fused burst ([`crate::fuse::run_burst_fused`]), the
//! production engine, runs its instructions through the same [`exec`] and
//! consumes the in-loop answer table ([`FastSpec`]).

use ia_abi::{RawArgs, Signal, SysResult};

use crate::insn::{Insn, NREGS, SP};
use crate::mem::AddressSpace;

/// Register carrying the syscall number at a `Sys` trap.
pub const SYS_NR_REG: usize = 7;
/// Register receiving the first result of a syscall.
pub const SYSRET_RV0: usize = 0;
/// Register receiving the errno (0 on success).
pub const SYSRET_ERRNO: usize = 1;
/// Register receiving the second result (`rv[1]`).
pub const SYSRET_RV1: usize = 2;

/// The CPU state of one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmState {
    /// General-purpose registers. `regs[15]` is the stack pointer.
    pub regs: [u64; NREGS],
    /// Program counter: index into the code segment.
    pub pc: u64,
    /// Set once the machine halts; stepping a halted machine is a no-op.
    pub halted: bool,
    /// Instructions retired, for the virtual clock and `getrusage`.
    pub insns_retired: u64,
}

impl VmState {
    /// A machine at `entry` with the stack pointer at the top of `mem_size`.
    #[must_use]
    pub fn new(entry: u64, mem_size: usize) -> VmState {
        let mut regs = [0u64; NREGS];
        regs[SP as usize] = mem_size as u64;
        VmState {
            regs,
            pc: entry,
            halted: false,
            insns_retired: 0,
        }
    }

    /// Applies a syscall result to the return registers, the inverse of the
    /// trap: `r0 ← rv[0]`, `r1 ← errno` (0 on success), `r2 ← rv[1]`.
    pub fn apply_sysret(&mut self, res: SysResult) {
        set_sysret(&mut self.regs, res);
    }

    /// The trap arguments at a `Sys` instruction: `(number, r0..r5)`.
    #[must_use]
    pub fn trap_args(&self) -> (u32, RawArgs) {
        (
            self.regs[SYS_NR_REG] as u32,
            [
                self.regs[0],
                self.regs[1],
                self.regs[2],
                self.regs[3],
                self.regs[4],
                self.regs[5],
            ],
        )
    }
}

/// [`VmState::apply_sysret`] on a bare register file.
#[inline]
pub(crate) fn set_sysret(regs: &mut [u64; NREGS], res: SysResult) {
    match res {
        Ok([rv0, rv1]) => {
            regs[SYSRET_RV0] = rv0;
            regs[SYSRET_ERRNO] = 0;
            regs[SYSRET_RV1] = rv1;
        }
        Err(e) => {
            regs[SYSRET_RV0] = u64::MAX;
            regs[SYSRET_ERRNO] = u64::from(e.code());
            regs[SYSRET_RV1] = 0;
        }
    }
}

/// The observable outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Ordinary instruction retired.
    Continue,
    /// The program executed `Sys`; the kernel must dispatch `(nr, args)`
    /// and then `apply_sysret`. The pc has already advanced past the trap.
    Syscall {
        /// Raw syscall number from `r7`.
        nr: u32,
        /// Raw argument registers `r0..r5`.
        args: RawArgs,
    },
    /// The program executed `Halt`.
    Halted,
    /// The program faulted; the kernel posts this signal.
    Fault(Signal),
}

/// Why a [`run_slice`] call stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceEnd {
    /// The instruction budget ran out mid-program; the process is still
    /// runnable and the scheduler should round-robin.
    Expired,
    /// The program trapped with `Sys`; the trap instruction is included in
    /// [`SliceResult::retired`]. The kernel must dispatch and `apply_sysret`.
    Syscall {
        /// Raw syscall number from `r7`.
        nr: u32,
        /// Raw argument registers `r0..r5`.
        args: RawArgs,
    },
    /// The program executed `Halt` (not counted in `retired`).
    Halted,
    /// The program faulted (not counted in `retired`); the kernel posts
    /// this signal with the pc parked on the faulting instruction.
    Fault(Signal),
}

/// Outcome of running a bounded burst of instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceResult {
    /// Instructions retired this burst — exactly the events the kernel
    /// charges to the virtual clock (`Continue`s plus a trailing `Sys`).
    pub retired: u64,
    /// Why the burst ended.
    pub end: SliceEnd,
}

/// Executes up to `max` instructions with [`step`], returning to the
/// caller only on a trap, halt, fault, or an exhausted budget.
///
/// This is the reference engine the fused burst is held bit-identical to,
/// and the engine `Engine::Plain` runs. The scheduler calls it once per
/// time slice, so the virtual clock can be advanced once by `retired` —
/// bit-identical to `retired` separate advances, since the
/// per-instruction charge is a constant number of nanoseconds.
pub fn run_slice(vm: &mut VmState, mem: &mut AddressSpace, code: &[Insn], max: u64) -> SliceResult {
    let mut retired = 0u64;
    while retired < max {
        match step(vm, mem, code) {
            StepEvent::Continue => retired += 1,
            StepEvent::Syscall { nr, args } => {
                retired += 1;
                return SliceResult {
                    retired,
                    end: SliceEnd::Syscall { nr, args },
                };
            }
            StepEvent::Halted => {
                return SliceResult {
                    retired,
                    end: SliceEnd::Halted,
                }
            }
            StepEvent::Fault(sig) => {
                return SliceResult {
                    retired,
                    end: SliceEnd::Fault(sig),
                }
            }
        }
    }
    SliceResult {
        retired,
        end: SliceEnd::Expired,
    }
}

/// Executes one instruction.
///
/// On [`StepEvent::Fault`] the pc is left *at* the faulting instruction so
/// a handler installed for the signal can inspect it; the kernel's default
/// action terminates the process anyway.
#[inline]
pub fn step(vm: &mut VmState, mem: &mut AddressSpace, code: &[Insn]) -> StepEvent {
    if vm.halted {
        return StepEvent::Halted;
    }
    let Some(&insn) = code.get(vm.pc as usize) else {
        return StepEvent::Fault(Signal::SIGSEGV);
    };
    match exec(&mut vm.regs, &mut vm.pc, mem, insn) {
        Exec::Next => {
            vm.insns_retired += 1;
            StepEvent::Continue
        }
        Exec::Trap => {
            vm.insns_retired += 1;
            let (nr, args) = vm.trap_args();
            StepEvent::Syscall { nr, args }
        }
        Exec::Halt => {
            vm.insns_retired += 1;
            vm.halted = true;
            StepEvent::Halted
        }
        Exec::Fault(sig) => StepEvent::Fault(sig),
    }
}

/// What [`exec`] did with one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exec {
    /// Retired; the pc names the next instruction.
    Next,
    /// Retired a `Sys`; the pc is past it and the registers hold the trap.
    Trap,
    /// Reached `Halt`; the pc stays on it.
    Halt,
    /// Faulted with nothing changed; the pc stays on the instruction.
    Fault(Signal),
}

/// Executes one already-fetched instruction at `*pc`: the one place that
/// says what each instruction does. [`step`] wraps it for the reference
/// engine; the fused burst runs every plain slot and both halves of every
/// superinstruction through it on its own locals, so inlining lets each
/// of its arms fold to that instruction's code alone. Register numbers
/// are masked (decode rejects any `>= NREGS`), so no access is
/// bounds-checked.
#[inline(always)]
pub(crate) fn exec(
    regs: &mut [u64; NREGS],
    pc: &mut u64,
    mem: &mut AddressSpace,
    insn: Insn,
) -> Exec {
    macro_rules! r {
        ($i:expr) => {
            regs[usize::from($i) & (NREGS - 1)]
        };
    }
    macro_rules! memop {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(_) => return Exec::Fault(Signal::SIGSEGV),
            }
        };
    }
    let next = *pc + 1;
    use Insn::*;
    match insn {
        Li(rd, v) => r!(rd) = v,
        Mov(rd, rs) => r!(rd) = r!(rs),
        Ld(rd, rs, off) => r!(rd) = memop!(mem.read_u64(r!(rs).wrapping_add(off as u64))),
        St(rd, rs, off) => memop!(mem.write_u64(r!(rd).wrapping_add(off as u64), r!(rs))),
        Ldb(rd, rs, off) => {
            r!(rd) = u64::from(memop!(mem.read_u8(r!(rs).wrapping_add(off as u64))));
        }
        Stb(rd, rs, off) => memop!(mem.write_u8(r!(rd).wrapping_add(off as u64), r!(rs) as u8)),
        Add(rd, a, b) => r!(rd) = r!(a).wrapping_add(r!(b)),
        Sub(rd, a, b) => r!(rd) = r!(a).wrapping_sub(r!(b)),
        Mul(rd, a, b) => r!(rd) = r!(a).wrapping_mul(r!(b)),
        Div(rd, a, b) => match r!(b) {
            0 => return Exec::Fault(Signal::SIGFPE),
            d => r!(rd) = r!(a) / d,
        },
        Rem(rd, a, b) => match r!(b) {
            0 => return Exec::Fault(Signal::SIGFPE),
            d => r!(rd) = r!(a) % d,
        },
        Addi(rd, rs, imm) => r!(rd) = r!(rs).wrapping_add(imm as u64),
        And(rd, a, b) => r!(rd) = r!(a) & r!(b),
        Or(rd, a, b) => r!(rd) = r!(a) | r!(b),
        Xor(rd, a, b) => r!(rd) = r!(a) ^ r!(b),
        Shl(rd, a, b) => r!(rd) = r!(a) << (r!(b) & 63),
        Shr(rd, a, b) => r!(rd) = r!(a) >> (r!(b) & 63),
        Sltu(rd, a, b) => r!(rd) = u64::from(r!(a) < r!(b)),
        Slt(rd, a, b) => r!(rd) = u64::from((r!(a) as i64) < (r!(b) as i64)),
        Seq(rd, a, b) => r!(rd) = u64::from(r!(a) == r!(b)),
        Jmp(t) => {
            *pc = t;
            return Exec::Next;
        }
        Jz(rs, t) => {
            *pc = if r!(rs) == 0 { t } else { next };
            return Exec::Next;
        }
        Jnz(rs, t) => {
            *pc = if r!(rs) != 0 { t } else { next };
            return Exec::Next;
        }
        Call(t) => {
            let sp = r!(SP).wrapping_sub(8);
            memop!(mem.write_u64(sp, next));
            r!(SP) = sp;
            *pc = t;
            return Exec::Next;
        }
        Ret => {
            let sp = r!(SP);
            *pc = memop!(mem.read_u64(sp));
            r!(SP) = sp + 8;
            return Exec::Next;
        }
        Sys => {
            *pc = next;
            return Exec::Trap;
        }
        Halt => return Exec::Halt,
        Nop => {}
    }
    *pc = next;
    Exec::Next
}

/// The per-process answer table for the in-loop syscall fast path — the
/// router's verdict on which fast-answerable numbers may be answered
/// inside the VM loop for one process, computed from the installed agent
/// chain at the entry of each answering burst (and therefore invalidated
/// for free on any chain mutation: the next burst recomputes it). A number
/// is answerable only when no agent on the chain is interested in it. The
/// default answers nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FastSpec {
    /// Whether `getpid` may be answered in the loop.
    pub getpid: bool,
    /// Whether `gettimeofday` may be answered in the loop.
    pub gtod: bool,
}

impl FastSpec {
    /// Everything off: never answer in the loop.
    pub const OFF: FastSpec = FastSpec {
        getpid: false,
        gtod: false,
    };

    /// Everything answered directly with no agent involvement.
    pub const DIRECT: FastSpec = FastSpec {
        getpid: true,
        gtod: true,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::AddressSpace;
    use Insn::*;

    fn run(code: &[Insn], max: usize) -> (VmState, AddressSpace, StepEvent) {
        let mut vm = VmState::new(0, 4096);
        let mut mem = AddressSpace::new(4096, 0);
        let mut last = StepEvent::Continue;
        for _ in 0..max {
            last = step(&mut vm, &mut mem, code);
            if last != StepEvent::Continue {
                break;
            }
        }
        (vm, mem, last)
    }

    #[test]
    fn arithmetic_basics() {
        let code = [
            Li(0, 10),
            Li(1, 3),
            Add(2, 0, 1),
            Sub(3, 0, 1),
            Mul(4, 0, 1),
            Div(5, 0, 1),
            Rem(6, 0, 1),
            Halt,
        ];
        let (vm, _, ev) = run(&code, 100);
        assert_eq!(ev, StepEvent::Halted);
        assert_eq!(vm.regs[2], 13);
        assert_eq!(vm.regs[3], 7);
        assert_eq!(vm.regs[4], 30);
        assert_eq!(vm.regs[5], 3);
        assert_eq!(vm.regs[6], 1);
    }

    #[test]
    fn division_by_zero_faults_sigfpe() {
        let code = [Li(0, 1), Li(1, 0), Div(2, 0, 1)];
        let (vm, _, ev) = run(&code, 10);
        assert_eq!(ev, StepEvent::Fault(Signal::SIGFPE));
        assert_eq!(vm.pc, 2, "pc parked on the faulting instruction");
    }

    #[test]
    fn memory_load_store() {
        let code = [
            Li(0, 0xfeed),
            Li(1, 128),
            St(1, 0, 8), // mem[136] = 0xfeed
            Ld(2, 1, 8),
            Halt,
        ];
        let (vm, mem, _) = run(&code, 10);
        assert_eq!(vm.regs[2], 0xfeed);
        assert_eq!(mem.read_u64(136).unwrap(), 0xfeed);
    }

    #[test]
    fn wild_store_faults_sigsegv() {
        let code = [Li(0, 1), Li(1, 1 << 40), St(1, 0, 0)];
        let (_, _, ev) = run(&code, 10);
        assert_eq!(ev, StepEvent::Fault(Signal::SIGSEGV));
    }

    #[test]
    fn running_off_the_code_faults() {
        let code = [Nop];
        let (_, _, ev) = run(&code, 10);
        assert_eq!(ev, StepEvent::Fault(Signal::SIGSEGV));
    }

    #[test]
    fn branches_and_loop() {
        // Sum 1..=5 with a countdown loop.
        let code = [
            Li(0, 5),     // i = 5
            Li(1, 0),     // acc
            Jz(0, 6),     // while i != 0
            Add(1, 1, 0), //   acc += i
            Addi(0, 0, -1),
            Jmp(2),
            Halt,
        ];
        let (vm, _, ev) = run(&code, 100);
        assert_eq!(ev, StepEvent::Halted);
        assert_eq!(vm.regs[1], 15);
    }

    #[test]
    fn call_and_ret_use_the_stack() {
        let code = [
            Call(3), // -> proc
            Li(5, 99),
            Halt,
            Li(4, 7), // proc:
            Ret,
        ];
        let (vm, _, ev) = run(&code, 20);
        assert_eq!(ev, StepEvent::Halted);
        assert_eq!(vm.regs[4], 7);
        assert_eq!(vm.regs[5], 99);
        assert_eq!(vm.regs[SP as usize], 4096, "stack balanced");
    }

    #[test]
    fn sys_raises_trap_with_args_and_advances_pc() {
        let code = [Li(7, 116), Li(0, 11), Li(1, 22), Sys, Halt];
        let mut vm = VmState::new(0, 4096);
        let mut mem = AddressSpace::new(4096, 0);
        let mut ev = StepEvent::Continue;
        while ev == StepEvent::Continue {
            ev = step(&mut vm, &mut mem, &code);
        }
        assert_eq!(
            ev,
            StepEvent::Syscall {
                nr: 116,
                args: [11, 22, 0, 0, 0, 0]
            }
        );
        assert_eq!(vm.pc, 4, "pc past the trap, ready to resume");
        vm.apply_sysret(Ok([5, 6]));
        assert_eq!(vm.regs[0], 5);
        assert_eq!(vm.regs[1], 0);
        assert_eq!(vm.regs[2], 6);
        vm.apply_sysret(Err(ia_abi::Errno::ENOENT));
        assert_eq!(vm.regs[0], u64::MAX);
        assert_eq!(vm.regs[1], 2);
    }

    #[test]
    fn halted_machine_stays_halted() {
        let code = [Halt];
        let mut vm = VmState::new(0, 4096);
        let mut mem = AddressSpace::new(4096, 0);
        assert_eq!(step(&mut vm, &mut mem, &code), StepEvent::Halted);
        assert_eq!(step(&mut vm, &mut mem, &code), StepEvent::Halted);
        assert_eq!(vm.insns_retired, 1);
    }

    #[test]
    fn run_slice_matches_step_by_step() {
        // A loop with a trap in the middle: slice execution must retire
        // exactly the instructions the per-step loop charges, and park the
        // machine in the same state.
        let code = [
            Li(7, 20), // getpid-ish number
            Li(0, 5),  // i = 5
            Jz(0, 7),
            Sys,
            Addi(0, 0, -1),
            Jmp(2),
            Nop,
            Halt,
        ];
        let mut a = VmState::new(0, 4096);
        let mut am = AddressSpace::new(4096, 0);
        let mut b = VmState::new(0, 4096);
        let mut bm = AddressSpace::new(4096, 0);
        let mut a_charged = 0u64;
        let mut b_charged = 0u64;
        loop {
            // Reference: the old per-instruction loop.
            let ev = step(&mut a, &mut am, &code);
            match ev {
                StepEvent::Continue | StepEvent::Syscall { .. } => a_charged += 1,
                _ => {}
            }
            if let StepEvent::Syscall { .. } = ev {
                a.apply_sysret(Ok([1, 0]));
            }
            if matches!(ev, StepEvent::Halted | StepEvent::Fault(_)) {
                break;
            }
        }
        loop {
            let r = run_slice(&mut b, &mut bm, &code, 3);
            b_charged += r.retired;
            match r.end {
                SliceEnd::Syscall { .. } => b.apply_sysret(Ok([1, 0])),
                SliceEnd::Expired => {}
                SliceEnd::Halted | SliceEnd::Fault(_) => break,
            }
        }
        assert_eq!(a_charged, b_charged);
        assert_eq!(a, b);
    }

    #[test]
    fn run_slice_stops_on_budget_trap_halt_and_fault() {
        let code = [Nop, Nop, Nop, Nop, Halt];
        let mut vm = VmState::new(0, 4096);
        let mut mem = AddressSpace::new(4096, 0);
        let r = run_slice(&mut vm, &mut mem, &code, 2);
        assert_eq!(r.retired, 2);
        assert_eq!(r.end, SliceEnd::Expired);
        let r = run_slice(&mut vm, &mut mem, &code, 100);
        assert_eq!(r.retired, 2, "halt not counted");
        assert_eq!(r.end, SliceEnd::Halted);

        let code = [Li(7, 9), Sys, Halt];
        let mut vm = VmState::new(0, 4096);
        let r = run_slice(&mut vm, &mut mem, &code, 100);
        assert_eq!(r.retired, 2, "trap instruction counted");
        assert!(matches!(r.end, SliceEnd::Syscall { nr: 9, .. }));

        let code = [Li(0, 1), Li(1, 0), Div(2, 0, 1)];
        let mut vm = VmState::new(0, 4096);
        let r = run_slice(&mut vm, &mut mem, &code, 100);
        assert_eq!(r.retired, 2, "faulting instruction not counted");
        assert_eq!(r.end, SliceEnd::Fault(Signal::SIGFPE));
        assert_eq!(vm.pc, 2, "pc parked on the faulting instruction");
    }

    #[test]
    fn comparison_ops() {
        let code = [
            Li(0, 5),
            Li(1, u64::MAX), // -1 signed
            Sltu(2, 0, 1),   // 5 < huge (unsigned) = 1
            Slt(3, 1, 0),    // -1 < 5 (signed) = 1
            Seq(4, 0, 0),
            Halt,
        ];
        let (vm, _, _) = run(&code, 10);
        assert_eq!(vm.regs[2], 1);
        assert_eq!(vm.regs[3], 1);
        assert_eq!(vm.regs[4], 1);
    }
}
