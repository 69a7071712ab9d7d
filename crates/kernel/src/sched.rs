//! The scheduler: runs processes, dispatches traps through a pluggable
//! router, delivers signals, and manages blocking.
//!
//! The [`SyscallRouter`] trait is the seam where interposition attaches.
//! With [`KernelRouter`] every trap goes straight to the kernel — Figure
//! 1-1 of the paper. The `ia-interpose` crate provides a router that sends
//! registered traps through per-process agent chains first — Figures 1-2
//! through 1-4.
//!
//! [`run`] is the one scheduler. The process table is its only state:
//! each round derives the runnable pick, the due interval timers, the
//! wakeups and the next deadline from a scan of the live processes (no
//! workload runs more than a handful at once), and charges the virtual
//! clock once by the batched retired count (bit-identical to
//! per-instruction charging, since the per-instruction cost is a
//! constant). The table is a pid-ordered `BTreeMap` of boxed processes,
//! so the round-robin pick is one walk from just past the last pid and
//! the `Deadlock` list comes out in pid order without a sort; only the
//! due timers are sorted, by `(deadline, pid)`. A select's timeout
//! lives in [`Process::select_deadline`] alone.
//! The [`Engine`] picks the loop a round runs:
//!
//! * [`Engine::Fused`] — production. When nothing could preempt between
//!   turns, one gate hands the whole stretch to [`run_burst_fused`], which
//!   runs back-to-back turns and answers `getpid`/`gettimeofday` from the
//!   router's [`FastSpec`] without leaving the loop; otherwise it runs one
//!   [`SLICE`] turn.
//! * [`Engine::Plain`] — the differential reference: one [`run_slice`]
//!   turn over `step` per round, every trap routed.
//!
//! The differential tests and `ia-conform` require the two to agree on the
//! complete [`crate::Observable`], virtual clock included.

use ia_abi::signal::{DefaultAction, SigDisposition, Signal};
use ia_abi::types::SigContext;
use ia_abi::wire::Wire;
use ia_abi::{Errno, RawArgs, SysResult, Sysno};
use ia_vm::fuse::{run_burst_fused, AnswerTable, FusedBurst, FUSED_KINDS};
use ia_vm::machine::{run_slice, FastSpec, SliceEnd};

use crate::kernel::{Engine, Kernel, SysOutcome, WakeEvent};
use crate::process::{PendingTrap, Pid, ProcState, Process, WaitChannel};

/// Instructions per scheduling slice.
pub const SLICE: u32 = 100;

/// One completed trap recorded for a deferred vectored upcall: the raw
/// argument registers at the trap and the result the kernel applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchCall {
    /// Raw argument registers `r0..r5` at the trap.
    pub args: RawArgs,
    /// The kernel's result, already applied to the return registers.
    pub ret: SysResult,
}

/// How a trap reaches an implementation of the system interface.
pub trait SyscallRouter {
    /// Dispatches one trap. `restarts` counts how many times this same
    /// logical call has already been dispatched and blocked (0 on first
    /// delivery) — interposition layers use it to avoid double-counting
    /// restarted calls. The default route is the kernel itself.
    fn route(
        &mut self,
        k: &mut Kernel,
        pid: Pid,
        nr: u32,
        args: RawArgs,
        restarts: u32,
    ) -> SysOutcome;

    /// Filters a signal about to be delivered to the application — the
    /// *upward* interposition path. Returning `false` consumes the signal
    /// without delivering it.
    fn filter_signal(&mut self, _k: &mut Kernel, _pid: Pid, _sig: Signal) -> bool {
        true
    }

    /// A no-op that nothing in this workspace calls: the kernel tears each
    /// [`crate::Emulation`] down itself. It remains only because an
    /// out-of-workspace delegating router (the `perfbench` probe) forwards it.
    fn on_process_exit(&mut self, _k: &mut Kernel, _pid: Pid) {}

    /// The in-loop fast-path answer table for `pid`, consulted at the entry
    /// of each answering burst. The conservative default keeps everything
    /// on the ordinary dispatch path.
    fn fast_spec(&mut self, _k: &Kernel, _pid: Pid) -> FastSpec {
        FastSpec::OFF
    }

    /// Notification that `count` traps of `nr` from `pid` were answered
    /// in-loop — the router reconciles its pay-per-use counters so fast
    /// and slow runs report identically.
    fn note_fast_direct(&mut self, _k: &mut Kernel, _pid: Pid, _nr: u32, _count: u64) {}

    /// A no-op that nothing in this workspace calls: the scheduler never
    /// collects calls in the loop, so vectored upcalls are batched by the
    /// router's `route` alone. It remains only because an out-of-workspace
    /// delegating router (the `perfbench` probe) still overrides it.
    fn absorb_batch(&mut self, _k: &mut Kernel, _pid: Pid, _nr: u32, _calls: &[BatchCall]) {}
}

/// The identity router: every trap goes directly to the kernel.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelRouter;

impl SyscallRouter for KernelRouter {
    fn route(
        &mut self,
        k: &mut Kernel,
        pid: Pid,
        nr: u32,
        args: RawArgs,
        _restarts: u32,
    ) -> SysOutcome {
        k.syscall(pid, nr, args)
    }

    fn fast_spec(&mut self, _k: &Kernel, _pid: Pid) -> FastSpec {
        // No agents anywhere: fast-answerable numbers are always direct.
        FastSpec::DIRECT
    }
}

/// Limits on one `run` invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Maximum instructions (across all processes) before giving up.
    pub max_steps: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_steps: 2_000_000_000,
        }
    }
}

/// Why `run` returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every process has exited.
    AllExited,
    /// Runnable work exists but the step limit was reached.
    StepLimit,
    /// Processes remain but all are blocked with nothing to wake them.
    Deadlock {
        /// The blocked pids, in ascending order.
        blocked: Vec<Pid>,
    },
    /// Only stopped processes remain (awaiting an external `SIGCONT`).
    Stalled,
}

/// Runs the system until every process exits (or a limit/deadlock).
///
/// Each round borrows the chosen process once and executes one slice (or,
/// through the burst gate, a run of back-to-back slices) in the kernel's
/// [`Engine`]; accounting (virtual clock, `user_insns`, total instruction
/// count) is charged once per round by the batched retired count.
/// Scheduling decisions are read off the process table, so no index can
/// fall out of step with it. Every round starts with the kernel's settle
/// pass and so does the return, so every fork and exit has had its hooks.
pub fn run<R: SyscallRouter>(k: &mut Kernel, router: &mut R, limits: RunLimits) -> RunOutcome {
    let outcome = run_rounds(k, router, limits);
    k.settle();
    outcome
}

fn run_rounds<R: SyscallRouter>(k: &mut Kernel, router: &mut R, limits: RunLimits) -> RunOutcome {
    let mut steps: u64 = 0;
    let mut last_pid: Pid = 0;
    loop {
        k.settle();
        fire_timers(k);
        apply_wakeups(k);

        let Some(pid) = pick_runnable(k, last_pid) else {
            // Nobody runnable: maybe time just needs to pass.
            if let Some(deadline) = earliest_deadline(k) {
                let now = k.clock.elapsed_ns();
                if deadline > now {
                    k.clock.advance_ns(deadline - now);
                }
                fire_timers(k);
                apply_wakeups(k);
                wake_expired_selects(k);
                continue;
            }
            let blocked: Vec<Pid> = k
                .procs
                .values()
                .filter(|p| matches!(p.state, ProcState::Blocked(_)))
                .map(|p| p.pid)
                .collect();
            if !blocked.is_empty() {
                return RunOutcome::Deadlock { blocked };
            }
            if k.procs
                .values()
                .any(|p| matches!(p.state, ProcState::Stopped))
            {
                return RunOutcome::Stalled;
            }
            return RunOutcome::AllExited;
        };
        last_pid = pid;

        // Deliver one pending signal before the process runs.
        deliver_signals(k, router, pid);
        if !is_runnable(k, pid) {
            continue;
        }

        // A restarted trap takes precedence over stepping the machine.
        if let Some(trap) = k.procs.get_mut(&pid).and_then(|p| p.pending_trap.take()) {
            dispatch(k, router, pid, trap.nr, trap.args, trap.restarts + 1);
            steps += 1;
            if steps >= limits.max_steps {
                return RunOutcome::StepLimit;
            }
            continue;
        }

        // The one gate. When nothing could preempt between turns — fused
        // engine, a single runnable process, no armed timer or timed
        // select, no pending wakeup — the whole stretch runs as one
        // [`run_burst_fused`] call of back-to-back turns, and with the
        // fast path on, traps in the router's answer table are answered
        // inside it. Per-turn slice boundaries, pair splits and accounting
        // are preserved exactly; only the per-turn scheduler round and the
        // answered dispatches are amortised. Otherwise one `SLICE` turn
        // runs and every trap is routed. The flight recorder is not a
        // condition: a recorded run takes this same path and logs one
        // `Slice` per burst. The budget never exceeds the remaining step
        // allowance, so the step-limit check falls out of the `Expired`
        // arm below.
        let remaining = limits.max_steps.saturating_sub(steps).max(1);
        let fused_engine = k.engine == Engine::Fused;
        let burst = fused_engine
            && k.wakeups.is_empty()
            && k.procs
                .values()
                .filter(|p| p.state == ProcState::Runnable)
                .count()
                == 1
            && earliest_deadline(k).is_none();
        let (max, table) = if burst {
            let table = if k.fast_path {
                answer_table(k, pid, router.fast_spec(k, pid))
            } else {
                AnswerTable::default()
            };
            (remaining, table)
        } else {
            (u64::from(SLICE).min(remaining), AnswerTable::default())
        };
        let Some(p) = k.procs.get_mut(&pid) else {
            steps += 1;
            if steps >= limits.max_steps {
                return limit_outcome(k);
            }
            continue;
        };
        let mut fuse_hits = [0u64; FUSED_KINDS];
        let res = if fused_engine {
            run_burst_fused(
                &mut p.vm,
                &mut p.mem,
                &p.fused,
                u64::from(SLICE),
                max,
                &table,
                &mut fuse_hits,
            )
        } else {
            run_slice(&mut p.vm, &mut p.mem, &p.code, max).into()
        };
        p.usage.user_insns += res.retired;
        // Every completed turn before the burst's final one ended on slice
        // expiry or an answered trap; a full one charges one involuntary
        // switch, as its own round would. Each answered trap is one
        // syscall and one voluntary switch.
        p.usage.nivcsw += res.full_turns;
        let answered = res.answered();
        p.usage.sys_ns += res.cost_ns;
        p.usage.nsyscalls += answered;
        p.usage.nvcsw += answered;
        if fused_engine {
            k.fusion_stats.add(&fuse_hits);
        }
        k.perf.slices += res.turns;
        k.total_insns += res.retired;
        k.total_syscalls += answered;
        k.clock
            .advance_ns(res.retired * k.profile.insn_ns + res.cost_ns);
        k.obs.slice(pid, res.retired, k.clock.elapsed_ns());
        if answered > 0 {
            note_answers(k, router, pid, &res);
        }

        // A trailing halt or fault consumed a scheduler step without
        // retiring an instruction.
        let iterations = res.end_turn_retired
            + u64::from(matches!(res.end, SliceEnd::Halted | SliceEnd::Fault(_)));
        steps += (res.retired - res.end_turn_retired) + iterations;
        let full_slice = iterations == u64::from(SLICE);

        match res.end {
            SliceEnd::Expired => {
                if steps >= limits.max_steps {
                    // Out of steps: stop before charging the involuntary
                    // switch.
                    return RunOutcome::StepLimit;
                }
                if let Some(p) = k.procs.get_mut(&pid) {
                    p.usage.nivcsw += 1;
                }
                continue;
            }
            SliceEnd::Syscall { nr, args } => {
                dispatch(k, router, pid, nr, args, 0);
            }
            SliceEnd::Halted => {
                // Halt is treated as exit(r0): convenient for small
                // hand-written programs and tests.
                let status = k
                    .procs
                    .get(&pid)
                    .map(|p| (p.vm.regs[0] & 0xff) as u8)
                    .unwrap_or(0);
                k.terminate(pid, ia_abi::signal::wait_status_exited(status));
            }
            SliceEnd::Fault(sig) => {
                handle_fault(k, router, pid, sig);
            }
        }
        if full_slice {
            if let Some(p) = k.procs.get_mut(&pid) {
                p.usage.nivcsw += 1;
            }
        }
        if steps >= limits.max_steps {
            return limit_outcome(k);
        }
    }
}

/// The burst's answer table for `pid`: the router's per-number verdicts
/// plus the cost-profile and clock state the loop charges answers with.
fn answer_table(k: &Kernel, pid: Pid, spec: FastSpec) -> AnswerTable {
    AnswerTable {
        spec,
        pid: u64::from(pid),
        getpid_cost_ns: k.profile.syscall_base_ns(Sysno::Getpid),
        gtod_cost_ns: k.profile.syscall_base_ns(Sysno::Gettimeofday),
        insn_ns: k.profile.insn_ns,
        clock_base_ns: k.clock.elapsed_ns(),
        epoch_secs: k.clock.epoch_secs(),
    }
}

/// Hands the router the pay-per-use counters of a burst's in-loop answers
/// before any trailing trap is routed, so it sees calls in program order.
fn note_answers<R: SyscallRouter>(k: &mut Kernel, router: &mut R, pid: Pid, res: &FusedBurst) {
    for (nr, count) in [
        (Sysno::Getpid.number(), res.direct_getpid),
        (Sysno::Gettimeofday.number(), res.direct_gtod),
    ] {
        if count > 0 {
            k.fast_stats.note_hits(pid, nr, count);
            router.note_fast_direct(k, pid, nr, count);
        }
    }
}

/// Step-limit epilogue: only give up if there is really still work to do.
fn limit_outcome(k: &Kernel) -> RunOutcome {
    if k.procs
        .values()
        .any(|p| matches!(p.state, ProcState::Runnable | ProcState::Blocked(_)))
    {
        return RunOutcome::StepLimit;
    }
    RunOutcome::AllExited
}

fn is_runnable(k: &Kernel, pid: Pid) -> bool {
    matches!(
        k.procs.get(&pid).map(|p| p.state),
        Some(ProcState::Runnable)
    )
}

/// Dispatches one trap through the router and applies the outcome.
#[inline(never)]
fn dispatch<R: SyscallRouter>(
    k: &mut Kernel,
    router: &mut R,
    pid: Pid,
    nr: u32,
    args: RawArgs,
    restarts: u32,
) {
    if nr == Sysno::Getpid.number() || nr == Sysno::Gettimeofday.number() {
        // A fast-answerable number took the ordinary path (fast path off,
        // burst gate closed, plain engine, or not answerable in-loop): a
        // miss.
        k.fast_stats.note_miss(pid, nr);
    }
    k.obs.trap_dispatch(pid, nr, restarts, k.clock.elapsed_ns());
    let outcome = router.route(k, pid, nr, args, restarts);
    // A process that exited or was killed during the call takes no result.
    let Some(p) = k
        .procs
        .get_mut(&pid)
        .filter(|p| !matches!(p.state, ProcState::Zombie(_)))
    else {
        return;
    };
    match outcome {
        SysOutcome::Done(res) => {
            p.vm.apply_sysret(res);
            p.usage.nvcsw += 1;
        }
        SysOutcome::NoReturn => {}
        SysOutcome::Block(ch) => {
            p.state = ProcState::Blocked(ch);
            p.pending_trap = Some(PendingTrap { nr, args, restarts });
            p.usage.nvcsw += 1;
        }
    }
}

/// A fault delivers its signal; if the signal cannot be taken (ignored,
/// blocked, or default-ignored), the process is killed anyway — re-running
/// the faulting instruction would spin forever.
fn handle_fault<R: SyscallRouter>(k: &mut Kernel, router: &mut R, pid: Pid, sig: Signal) {
    let Some(p) = k.procs.get(&pid) else { return };
    let action = p.sig.action(sig);
    let catchable =
        matches!(action.disposition, SigDisposition::Handler(_)) && !p.sig.mask.contains(sig);
    if catchable {
        // Skip the faulting instruction so the handler's sigreturn does not
        // re-fault: the pc was left at the faulting instruction.
        let _ = k.post_signal(pid, sig);
        if let Some(p) = k.procs.get_mut(&pid) {
            p.vm.pc += 1;
        }
        deliver_signals(k, router, pid);
    } else {
        k.terminate(pid, ia_abi::signal::wait_status_signaled(sig));
    }
}

/// Delivers at most one pending unblocked signal to a runnable process.
#[inline(never)]
fn deliver_signals<R: SyscallRouter>(k: &mut Kernel, router: &mut R, pid: Pid) {
    loop {
        let Some(p) = k.procs.get_mut(&pid) else {
            return;
        };
        if matches!(p.state, ProcState::Zombie(_) | ProcState::Stopped) {
            return;
        }
        let Some(sig) = p.sig.deliverable() else {
            return;
        };
        p.sig.pending.remove(sig);

        // The upward interposition path: agents see the signal first.
        if !router.filter_signal(k, pid, sig) {
            continue; // suppressed; look for another pending signal
        }
        k.obs
            .signal_delivered(pid, sig.number(), k.clock.elapsed_ns());
        let Some(p) = k.procs.get_mut(&pid) else {
            return;
        };
        p.usage.nsignals += 1;
        let action = p.sig.action(sig);
        match action.disposition {
            SigDisposition::Ignore => continue,
            SigDisposition::Default => match sig.default_action() {
                DefaultAction::Ignore | DefaultAction::Continue => continue,
                DefaultAction::Stop => {
                    p.state = ProcState::Stopped;
                    return;
                }
                DefaultAction::Terminate => {
                    k.terminate(pid, ia_abi::signal::wait_status_signaled(sig));
                    return;
                }
            },
            SigDisposition::Handler(addr) => {
                // An interrupted blocking call returns EINTR beneath the
                // handler frame.
                if p.pending_trap.take().is_some() {
                    p.vm.apply_sysret(Err(Errno::EINTR));
                    p.select_deadline = None;
                }
                if matches!(p.state, ProcState::Blocked(_)) {
                    p.state = ProcState::Runnable;
                }
                // The mask the context restores: a suspended process goes
                // back to its pre-sigsuspend mask.
                let restore_mask = p.sig.suspend_saved.take().unwrap_or(p.sig.mask);
                let ctx = SigContext {
                    pc: p.vm.pc,
                    regs: p.vm.regs,
                    mask: restore_mask,
                };
                let sp = (p.vm.regs[15].saturating_sub(SigContext::WIRE_SIZE as u64)) & !7;
                if p.mem.write_struct(sp, &ctx).is_err() {
                    // No room for the frame: the process dies as if the
                    // signal were uncatchable.
                    k.terminate(pid, ia_abi::signal::wait_status_signaled(sig));
                    return;
                }
                let mut mask = p.sig.mask.union(action.mask);
                mask.add(sig);
                p.sig.mask = mask.blockable();
                p.vm.regs[15] = sp;
                p.vm.regs[0] = u64::from(sig.number());
                p.vm.regs[1] = sp;
                p.vm.pc = addr;
                return;
            }
        }
    }
}

/// The deadline of `p`'s interval timer while it is armed and `p` lives.
fn timer_deadline(p: &Process) -> Option<u64> {
    if matches!(p.state, ProcState::Zombie(_)) {
        return None;
    }
    p.itimer.map(|(deadline, _)| deadline)
}

/// The timeout of `p`'s blocked `select`, if it has one.
fn select_timeout(p: &Process) -> Option<u64> {
    match p.state {
        ProcState::Blocked(WaitChannel::Select) => p.select_deadline.filter(|&d| d != u64::MAX),
        _ => None,
    }
}

/// Fires expired interval timers in `(deadline, pid)` order.
///
/// An overdue periodic timer fires once and is rescheduled *past* `now`,
/// preserving its phase: `next = deadline + interval * periods_elapsed`.
/// (Advancing by a single period regardless of how far behind the timer
/// was could leave the deadline still in the past after a long slice and
/// refire it once per scheduler pass until it caught up.)
fn fire_timers(k: &mut Kernel) {
    let now = k.clock.elapsed_ns();
    let mut due: Vec<(u64, Pid)> = k
        .procs
        .values()
        .filter_map(|p| timer_deadline(p).filter(|&d| d <= now).map(|d| (d, p.pid)))
        .collect();
    due.sort_unstable();
    for (deadline, pid) in due {
        let p = k.procs.get_mut(&pid).expect("listed");
        let (_, interval) = p.itimer.expect("listed");
        p.itimer = (interval > 0).then(|| {
            (
                deadline + interval * ((now - deadline) / interval + 1),
                interval,
            )
        });
        k.perf.timer_fires += 1;
        let _ = k.post_signal(pid, Signal::SIGALRM);
    }
}

/// Moves blocked processes whose wakeup condition fired back to runnable.
fn apply_wakeups(k: &mut Kernel) {
    let events = k.take_wakeups();
    if events.is_empty() {
        return;
    }
    for p in k.procs.values_mut() {
        if let ProcState::Blocked(ch) = p.state {
            if events.iter().any(|&ev| wakes(ev, ch, p)) {
                p.state = ProcState::Runnable;
            }
        }
    }
}

fn wakes(ev: WakeEvent, ch: WaitChannel, p: &Process) -> bool {
    match (ev, ch) {
        (WakeEvent::Pipe(a), WaitChannel::PipeReadable(b) | WaitChannel::PipeWritable(b)) => a == b,
        (WakeEvent::ChildOf(parent), WaitChannel::Child) => parent == p.pid,
        // A deliverable signal interrupts any wait.
        (WakeEvent::SignalTo(target), _) => target == p.pid && p.sig.deliverable().is_some(),
        (WakeEvent::Tty, WaitChannel::TtyInput) => true,
        (WakeEvent::Sock(_), WaitChannel::SockAccept) => true,
        // Selects wake conservatively on any I/O-ish event and re-poll.
        (WakeEvent::Pipe(_) | WakeEvent::Tty | WakeEvent::Sock(_), WaitChannel::Select) => true,
        _ => false,
    }
}

/// Wakes selects whose timeout has passed.
fn wake_expired_selects(k: &mut Kernel) {
    let now = k.clock.elapsed_ns();
    for p in k.procs.values_mut() {
        if select_timeout(p).is_some_and(|d| d <= now) {
            p.state = ProcState::Runnable;
        }
    }
}

/// Earliest future event that pure time passage will trigger: the first
/// armed interval timer or timed `select`.
fn earliest_deadline(k: &Kernel) -> Option<u64> {
    k.procs
        .values()
        .flat_map(|p| timer_deadline(p).into_iter().chain(select_timeout(p)))
        .min()
}

/// Round-robin pick: the lowest runnable pid strictly greater than
/// `last`, wrapping to the lowest runnable pid. One walk of the
/// pid-ordered table, starting just past `last`.
fn pick_runnable(k: &Kernel, last: Pid) -> Option<Pid> {
    k.procs
        .range(last + 1..)
        .chain(k.procs.range(..=last))
        .find(|(_, p)| p.state == ProcState::Runnable)
        .map(|(&pid, _)| pid)
}

impl Kernel {
    /// Convenience: run with the identity router until completion.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        run(self, &mut KernelRouter, RunLimits::default())
    }

    /// Convenience: run with a custom router until completion.
    pub fn run_with<R: SyscallRouter>(&mut self, router: &mut R) -> RunOutcome {
        run(self, router, RunLimits::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;

    fn kernel_with_idle_proc() -> (Kernel, Pid) {
        let mut k = KernelBuilder::new().build();
        let img = ia_vm::assemble("main: halt\n").unwrap();
        let pid = k.spawn_image(&img, &[b"idle"], b"idle");
        (k, pid)
    }

    fn arm_timer(k: &mut Kernel, pid: Pid, deadline: u64, interval: u64) {
        k.proc_mut(pid).unwrap().itimer = Some((deadline, interval));
    }

    /// Parks `pid` in a `select` whose timeout is `deadline` (`u64::MAX`
    /// for none), as `sys_select` leaves it.
    fn block_in_select(k: &mut Kernel, pid: Pid, deadline: u64) {
        let p = k.proc_mut(pid).unwrap();
        p.state = ProcState::Blocked(WaitChannel::Select);
        p.select_deadline = Some(deadline);
    }

    fn kernel_with_idle_procs(n: usize) -> Kernel {
        let (mut k, _) = kernel_with_idle_proc();
        let img = ia_vm::assemble("main: halt\n").unwrap();
        for _ in 1..n {
            k.spawn_image(&img, &[b"idle"], b"idle");
        }
        k
    }

    #[test]
    fn overdue_periodic_timer_fires_once_and_reschedules_past_now() {
        let (mut k, pid) = kernel_with_idle_proc();
        arm_timer(&mut k, pid, 1_000, 100);
        // The clock raced 9½ periods past the deadline (e.g. a long slice).
        k.clock.advance_ns(1_950);
        fire_timers(&mut k);
        // One SIGALRM, and the rearm lands on the next phase-aligned tick
        // strictly in the future — not `deadline + interval`, which would
        // still be in the past and refire on every scheduler pass.
        assert_eq!(k.perf.timer_fires, 1);
        assert!(k.proc(pid).unwrap().sig.pending.contains(Signal::SIGALRM));
        assert_eq!(k.proc(pid).unwrap().itimer, Some((2_000, 100)));
        // A second pass at the same instant fires nothing.
        fire_timers(&mut k);
        assert_eq!(k.perf.timer_fires, 1);
    }

    /// Runs `img` to completion on the default builder and on the
    /// reference (`Engine::Plain`, fast path off); returns both kernels and
    /// the initial pid after asserting they agree on the full
    /// [`crate::Observable`].
    fn run_default_and_reference(img: &ia_vm::Image) -> (Kernel, Kernel, Pid) {
        let run_one = |b: KernelBuilder| {
            let mut k = b.build();
            let pid = k.spawn_image(img, &[b"t"], b"t");
            assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
            (k, pid)
        };
        let (k, pid) = run_one(KernelBuilder::new());
        let (r, _) = run_one(KernelBuilder::new().engine(Engine::Plain).fast_path(false));
        assert_eq!(k.observable(), r.observable());
        (k, r, pid)
    }

    #[test]
    fn on_time_periodic_timer_rearm_matches_the_reference() {
        let (mut k, pid) = kernel_with_idle_proc();
        arm_timer(&mut k, pid, 1_000, 250);
        k.clock.advance_ns(1_000); // exactly at the deadline
        fire_timers(&mut k);
        assert_eq!(k.proc(pid).unwrap().itimer, Some((1_250, 250)));

        // End to end: a 1 ms periodic timer whose deadlines fall on
        // instruction boundaries (200 × 5 µs) interrupts a compute loop;
        // the handler counts SIGALRMs, and the count is the exit status.
        let img = ia_vm::assemble(
            r#"
            .data
            act: .space 16
            it:  .space 32
            cnt: .space 8
            .text
            main:
                jmp setup
            pad: nop
            handler:
                la r8, cnt
                ld r9, (r8)
                addi r9, r9, 1
                st r9, (r8)
                mov r0, r1
                sys sigreturn
            setup:
                li r3, 2
                la r1, act
                st r3, (r1)
                li r0, 14
                la r1, act
                li r2, 0
                sys sigaction
                la r1, it
                li r3, 1000
                st r3, 8(r1)
                st r3, 24(r1)
                li r0, 0
                la r1, it
                li r2, 0
                sys setitimer
                li r10, 9000
            loop:
                addi r10, r10, -1
                jnz r10, loop
                la r8, cnt
                ld r0, (r8)
                sys exit
            "#,
        )
        .unwrap();
        let (k, _, pid) = run_default_and_reference(&img);
        let status = ia_abi::signal::WaitStatus::decode(k.exit_status(pid).unwrap());
        assert!(
            matches!(status, Some(ia_abi::signal::WaitStatus::Exited(n)) if n > 0),
            "the periodic timer fired: {status:?}"
        );
    }

    #[test]
    fn one_shot_timer_fires_and_clears() {
        let (mut k, pid) = kernel_with_idle_proc();
        arm_timer(&mut k, pid, 500, 0);
        k.clock.advance_ns(700);
        fire_timers(&mut k);
        assert_eq!(k.proc(pid).unwrap().itimer, None);
        assert_eq!(k.perf.timer_fires, 1);
        assert_eq!(earliest_deadline(&k), None);
    }

    /// A kernel with one idle process per entry of `states`: pid `i + 1`
    /// in state `states[i]`.
    fn kernel_with_states(states: &[ProcState]) -> Kernel {
        let mut k = kernel_with_idle_procs(states.len());
        for (pid, &state) in (1..).zip(states) {
            k.proc_mut(pid).unwrap().state = state;
        }
        k
    }

    /// 48 processes, several B-tree nodes' worth: by `pid % 4`, runnable
    /// (1), blocked (2), stopped (3) and zombie (0).
    fn many_node_states() -> Vec<ProcState> {
        (1..=48)
            .map(|pid| match pid % 4 {
                1 => ProcState::Runnable,
                2 => ProcState::Blocked(WaitChannel::Child),
                3 => ProcState::Stopped,
                _ => ProcState::Zombie(0),
            })
            .collect()
    }

    #[test]
    fn pick_is_round_robin_with_wrap() {
        use ProcState::{Runnable as R, Stopped as S};
        let b = ProcState::Blocked(WaitChannel::Child);
        let many = many_node_states();
        // (states, `last` values, the next runnable pid above each,
        // wrapping).
        let cases: [(&[ProcState], &[Pid], &[Pid]); 2] = [
            // Runnable: 1, 2, 5.
            (&[R, R, b, S, R], &[0, 1, 2, 3, 5, 9], &[1, 2, 5, 5, 1, 1]),
            // Runnable: 1, 5, …, 45, spread over several nodes.
            (
                &many,
                &[0, 1, 4, 5, 9, 11, 12, 24, 25, 44, 45, 47, 48, 60],
                &[1, 5, 5, 9, 13, 13, 13, 25, 29, 45, 1, 1, 1, 1],
            ),
        ];
        for (states, lasts, picks) in cases {
            let k = kernel_with_states(states);
            let got: Vec<_> = lasts.iter().map(|&last| pick_runnable(&k, last)).collect();
            assert_eq!(got, picks.iter().copied().map(Some).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_table_of_many_nodes_walks_in_pid_order() {
        let every = |from: Pid, step: usize| (from..=48).step_by(step).collect::<Vec<Pid>>();
        let mut k = kernel_with_states(&many_node_states());
        assert_eq!(k.pids(), every(1, 1));

        // A process group's signal reaches its members in pid order;
        // its zombies count but take nothing.
        for pid in every(3, 3) {
            k.proc_mut(pid).unwrap().pgrp = 3;
        }
        assert_eq!(k.post_signal_pgrp(3, Signal::SIGUSR1, 1), 16);
        let signalled: Vec<Pid> = k
            .take_wakeups()
            .into_iter()
            .map(|ev| match ev {
                WakeEvent::SignalTo(pid) => pid,
                other => panic!("{other:?}"),
            })
            .collect();
        let members: Vec<Pid> = every(3, 3)
            .into_iter()
            .filter(|p| !p.is_multiple_of(4))
            .collect();
        assert_eq!(signalled, members);

        // `wait4` reaps the lowest-pid zombie first, then finds none.
        for pid in 2..=48 {
            k.proc_mut(pid).unwrap().ppid = 1;
        }
        let wnohang = 1;
        let wait_any = [u64::MAX, 0, wnohang, 0, 0, 0];
        let reaped: Vec<u64> = (0..13)
            .map(|_| match k.syscall(1, Sysno::Wait4.number(), wait_any) {
                SysOutcome::Done(Ok([child, _])) => child,
                other => panic!("{other:?}"),
            })
            .collect();
        let zombies = every(4, 4).into_iter().map(u64::from);
        assert_eq!(reaped, zombies.chain([0]).collect::<Vec<_>>());
        let live: Vec<Pid> = every(1, 1)
            .into_iter()
            .filter(|p| !p.is_multiple_of(4))
            .collect();
        assert_eq!(k.pids(), live);

        // Once the runnable processes halt, the blocked ones deadlock, and
        // are listed in pid order.
        let mut k = kernel_with_states(&many_node_states());
        assert_eq!(
            run(&mut k, &mut KernelRouter, RunLimits::default()),
            RunOutcome::Deadlock {
                blocked: every(2, 4)
            }
        );
    }

    #[test]
    fn terminated_process_is_never_picked() {
        let mut k = kernel_with_idle_procs(3);
        k.proc_mut(2).unwrap().ppid = 1;
        // pid 2 stays a zombie for its parent; orphan pid 3 is reaped at
        // the settle pass.
        k.terminate(2, ia_abi::signal::wait_status_exited(0));
        k.terminate(3, ia_abi::signal::wait_status_exited(0));
        assert!(matches!(k.proc(3).unwrap().state, ProcState::Zombie(_)));
        k.settle();
        assert!(matches!(k.proc(2).unwrap().state, ProcState::Zombie(_)));
        assert!(k.proc(3).is_err());
        for last in 0..5 {
            assert_eq!(pick_runnable(&k, last), Some(1), "after {last}");
        }
        k.terminate(1, ia_abi::signal::wait_status_exited(0));
        assert_eq!(pick_runnable(&k, 0), None);
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
    }

    #[test]
    fn earliest_deadline_spans_timers_and_timed_selects() {
        let mut k = kernel_with_idle_procs(3);
        assert_eq!(earliest_deadline(&k), None);
        arm_timer(&mut k, 1, 900, 0);
        block_in_select(&mut k, 2, 500);
        block_in_select(&mut k, 3, u64::MAX);
        assert_eq!(earliest_deadline(&k), Some(500));
        // A select woken early (by I/O) keeps its deadline for the restart
        // but no longer counts.
        k.proc_mut(2).unwrap().state = ProcState::Runnable;
        assert_eq!(earliest_deadline(&k), Some(900));
        // Nor does a dead process's timer.
        k.proc_mut(1).unwrap().state = ProcState::Zombie(0);
        assert_eq!(earliest_deadline(&k), None);
    }

    #[test]
    fn expired_select_wakes_and_untimed_one_waits() {
        let mut k = kernel_with_idle_procs(2);
        block_in_select(&mut k, 1, 500);
        block_in_select(&mut k, 2, u64::MAX);
        k.clock.advance_ns(499);
        wake_expired_selects(&mut k);
        assert!(!is_runnable(&k, 1), "not yet due");
        k.clock.advance_ns(1);
        wake_expired_selects(&mut k);
        assert!(is_runnable(&k, 1), "due at its deadline");
        assert!(!is_runnable(&k, 2), "no timeout");
    }

    #[test]
    fn wakeups_move_only_matching_waiters() {
        let mut k = kernel_with_idle_procs(3);
        let (a, b) = (ia_vfs::PipeId(1), ia_vfs::PipeId(2));
        k.proc_mut(1).unwrap().state = ProcState::Blocked(WaitChannel::PipeReadable(a));
        k.proc_mut(2).unwrap().state = ProcState::Blocked(WaitChannel::PipeWritable(b));
        block_in_select(&mut k, 3, u64::MAX);
        k.wakeups.push(WakeEvent::Pipe(a));
        apply_wakeups(&mut k);
        // The pipe's waiter and (conservatively) the select wake.
        assert!(is_runnable(&k, 1));
        assert!(!is_runnable(&k, 2));
        assert!(is_runnable(&k, 3));
    }

    #[test]
    fn itimer_set_on_the_process_fires() {
        // The process table is the only timer state: arming `itimer`
        // directly (no `setitimer`) is enough for SIGALRM to arrive. Its
        // default action kills the compute loop before it exits.
        let img = ia_vm::assemble(
            "main: li r10, 100000\nloop: addi r10, r10, -1\njnz r10, loop\nli r0, 0\nsys exit\n",
        )
        .unwrap();
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        arm_timer(&mut k, pid, 1_000_000, 0);
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        assert_eq!(k.perf.timer_fires, 1);
        assert_eq!(
            k.exit_status(pid),
            Some(ia_abi::signal::wait_status_signaled(Signal::SIGALRM))
        );
    }

    #[test]
    fn select_woken_by_io_leaves_the_burst_gate_open() {
        // The parent blocks in a select with a 100 s timeout; the child's
        // write wakes it long before. Once the child is reaped the parent
        // runs alone, so its getpid loop is answered inside the burst.
        let src = "
.data
tv:     .quad 100
        .quad 0
rset:   .space 8
status: .space 8
.text
main:   sys pipe
        mov r10, r0
        mov r11, r2
        sys fork
        jz r0, child
        li r3, 8            ; the read end, fd 3
        la r1, rset
        st r3, (r1)
        li r0, 4
        la r1, rset
        li r2, 0
        li r3, 0
        la r4, tv
        sys select
        mov r12, r0
        li r0, 0
        la r1, status
        li r2, 0
        li r3, 0
        sys wait4
        li r9, 1000
loop:   sys getpid
        addi r9, r9, -1
        jnz r9, loop
        mov r0, r12
        sys exit
child:  li r9, 500          ; let the parent reach its select first
spin:   addi r9, r9, -1
        jnz r9, spin
        mov r0, r11
        la r1, rset
        li r2, 1
        sys write
        li r0, 0
        sys exit
";
        let img = ia_vm::assemble(src).unwrap();
        let (k, _, pid) = run_default_and_reference(&img);
        assert_eq!(
            k.exit_status(pid),
            Some(ia_abi::signal::wait_status_exited(1))
        );
        assert!(k.clock.elapsed_ns() < 1_000_000_000, "woken by I/O");
        assert_eq!(k.fast_stats.hits(), 1000);
    }

    #[test]
    fn default_and_reference_agree_on_accounting() {
        // A compute loop with a trap per lap: the default configuration
        // answers every getpid inside the fused burst, the reference
        // routes each one. The virtual clock, instruction and syscall
        // totals and the rusage counters (written to the console) must be
        // bit-identical.
        let src = "
.data
ru:     .space 80
.text
main:   li r9, 2500
loop:   addi r9, r9, -1
        sys getpid
        jnz r9, loop
        li r0, 0
        la r1, ru
        sys getrusage
        li r0, 1
        la r1, ru
        li r2, 80
        sys write
        halt
";
        let img = ia_vm::assemble(src).unwrap();
        let (k, r, _) = run_default_and_reference(&img);
        assert_eq!(k.fast_stats.hits(), 2500, "answered in the burst");
        assert_eq!(r.fast_stats.hits(), 0, "the reference answers nothing");
        let routed = |k: &Kernel| k.total_syscalls - k.fast_stats.hits();
        assert_eq!(routed(&r), 2502, "getpids + getrusage + write");
        assert_eq!(routed(&k), 2, "only getrusage and write leave the loop");
    }
}
