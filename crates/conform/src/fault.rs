//! Systematic fault injection at the interception point.
//!
//! An agent that fabricates errors is a legitimate interposition use
//! ("heuristic evaluations of the target program's behavior", paper §1.4)
//! and doubles as a robustness harness: whatever errors appear at the
//! interface, the kernel must stay consistent — no leaked descriptors, no
//! orphaned pipes or sockets, wait converges, the scheduler queues stay
//! sane. [`fault_schedule`] enumerates each errno at each interception
//! point a program actually exercises, and [`run_fault_case`] asserts
//! consistency for one such injection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ia_abi::{Errno, RawArgs, Sysno};
use ia_interpose::{Agent, InterestSet, SysCtx};
use ia_kernel::{KernelBuilder, RunOutcome, SysOutcome};

use crate::gen::Program;
use crate::oracle::{run_world, world};

/// Fails every `every`-th intercepted call of one syscall with a chosen
/// errno, passing everything else through. The shared counter handle
/// reports how many errors were injected (across fork-inherited copies of
/// the agent).
pub struct FaultInjector {
    every: u64,
    counter: u64,
    errno: Errno,
    target: Sysno,
    injected: Arc<AtomicU64>,
}

impl FaultInjector {
    /// Builds an injector and the shared injection counter.
    #[must_use]
    pub fn new(target: Sysno, every: u64, errno: Errno) -> (FaultInjector, Arc<AtomicU64>) {
        let injected = Arc::new(AtomicU64::new(0));
        (
            FaultInjector {
                every: every.max(1),
                counter: 0,
                errno,
                target,
                injected: injected.clone(),
            },
            injected,
        )
    }

    /// [`FaultInjector::new`], boxed for `wrap_process`.
    #[must_use]
    pub fn boxed(target: Sysno, every: u64, errno: Errno) -> (Box<dyn Agent>, Arc<AtomicU64>) {
        let (a, h) = FaultInjector::new(target, every, errno);
        (Box::new(a), h)
    }
}

impl Agent for FaultInjector {
    fn name(&self) -> &'static str {
        "fault-injector"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::of(&[self.target])
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        self.counter += 1;
        if self.counter.is_multiple_of(self.every) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            let vnow = ctx.kernel.clock.elapsed_ns();
            ctx.kernel
                .obs
                .fault_injected(ctx.pid, nr, self.errno as u32, vnow);
            return SysOutcome::Done(Err(self.errno));
        }
        ctx.down(nr, args)
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(FaultInjector {
            every: self.every,
            counter: self.counter,
            errno: self.errno,
            target: self.target,
            injected: self.injected.clone(),
        })
    }
}

/// One fault-injection experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCase {
    /// Syscall to sabotage.
    pub target: Sysno,
    /// Errno to fabricate.
    pub errno: Errno,
    /// Fail every n-th call (≥ 2, so retries eventually succeed).
    pub every: u64,
}

impl std::fmt::Display for FaultCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "inject {} on every {}th {}",
            self.errno.name(),
            self.every,
            self.target.name()
        )
    }
}

/// Builds the systematic schedule for a program: every syscall on its
/// surface × a representative errno pair, at two injection periods.
#[must_use]
pub fn fault_schedule(program: &Program) -> Vec<FaultCase> {
    let mut cases = Vec::new();
    for target in program.syscall_surface() {
        for (errno, every) in [(Errno::EIO, 2), (Errno::EPERM, 3)] {
            cases.push(FaultCase {
                target,
                errno,
                every,
            });
        }
    }
    cases
}

/// Runs one injection experiment. The program must still terminate, and
/// the kernel must come out leak-free and structurally consistent;
/// observable *behaviour* is allowed to change (errors are real to the
/// client), so nothing else is compared.
pub fn run_fault_case(program: &Program, case: FaultCase) -> Result<(), String> {
    // Fast path forced on: injected errors must stay consistent with
    // in-loop answers engaged.
    let (agent, _injected) = FaultInjector::boxed(case.target, case.every, case.errno);
    let mut k = world(program, KernelBuilder::new().fast_path(true), vec![agent]);
    let outcome = run_world(&mut k);
    if outcome != RunOutcome::AllExited {
        return Err(format!("[{case}] wedged the machine: {outcome:?}"));
    }
    let leaks = k.check_quiescent();
    if !leaks.is_empty() {
        return Err(format!("[{case}] left kernel inconsistent: {leaks:?}"));
    }
    Ok(())
}

/// Runs the whole schedule; returns the first failing case with its
/// detail.
pub fn check_faults(program: &Program) -> Result<(), (FaultCase, String)> {
    for case in fault_schedule(program) {
        run_fault_case(program, case).map_err(|d| (case, d))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{sample, OpSet};

    #[test]
    fn injector_counts_and_injects() {
        let p = sample(9, 15, OpSet::ALL);
        let (agent, injected) = FaultInjector::boxed(Sysno::Write, 2, Errno::EIO);
        let mut k = world(&p, KernelBuilder::new(), vec![agent]);
        assert_eq!(run_world(&mut k), RunOutcome::AllExited);
        assert!(injected.load(Ordering::Relaxed) > 0);
        assert!(k.check_quiescent().is_empty());
    }

    #[test]
    fn full_schedule_holds_on_generated_programs() {
        for seed in [1, 4] {
            let p = sample(seed, 18, OpSet::ALL);
            if let Err((case, d)) = check_faults(&p) {
                panic!("seed {seed}, {case}: {d}");
            }
        }
    }
}
