//! The agent contract and the downcall context.

use ia_abi::{RawArgs, Signal};
use ia_kernel::{BatchCall, Kernel, Pid, SysOutcome};

use crate::interest::InterestSet;

/// What an agent decides about an incoming signal (the upward path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalVerdict {
    /// Pass the signal on (to the next agent above the application, or to
    /// the application itself).
    Deliver,
    /// Consume the signal: the application never sees it.
    Suppress,
    /// Replace the signal with another and continue delivery.
    Replace(Signal),
}

/// An interposition agent: user code that both uses and provides the system
/// interface.
///
/// This is the lowest-level contract — raw trap numbers and untyped numeric
/// argument vectors, the paper's *numeric system call layer* interface. The
/// `ia-toolkit` crate layers typed, object-structured interfaces on top;
/// almost no agent implements this trait directly.
///
/// Agents are [`Send`]: a tenant (one kernel, whose processes carry their
/// chains) migrates between host threads in the fleet's work-stealing pool, so no agent may
/// hold thread-pinned state (`Rc`, `RefCell`, raw pointers). State shared
/// between an agent and its forked clones or a host-side handle must use
/// `Arc<Mutex<…>>`/atomics — and such sharing must stay *within* one
/// tenant, or determinism is forfeit.
pub trait Agent: Send {
    /// Diagnostic name.
    fn name(&self) -> &'static str;

    /// The trap numbers this agent intercepts. Traps outside the union of
    /// all chained agents' interests bypass the chain entirely.
    ///
    /// Interests are read when the chain changes — install, [`with_chain`],
    /// fork, and every snapshot, branch or restore, which copy the chain —
    /// and the union compiled then gates every trap until the next change.
    ///
    /// [`with_chain`]: crate::with_chain
    fn interests(&self) -> InterestSet;

    /// One-time initialization when the agent is loaded around a process.
    /// `args` are the agent's own command-line arguments (the paper's
    /// `init(char *agentargv[])`).
    fn init(&mut self, _ctx: &mut SysCtx<'_>, _args: &[Vec<u8>]) {}

    /// Called on the child's copy of the agent after a `fork` of the client
    /// (the paper's `init_child()`).
    fn init_child(&mut self, _ctx: &mut SysCtx<'_>) {}

    /// An intercepted trap. `ctx.down(nr, args)` invokes the next instance
    /// of the system interface.
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome;

    /// An incoming signal headed for the application (the upward path).
    fn signal_incoming(&mut self, _ctx: &mut SysCtx<'_>, _sig: Signal) -> SignalVerdict {
        SignalVerdict::Deliver
    }

    /// Nothing reads this: every chain's interests are compiled when the
    /// chain changes (see [`Agent::interests`]). It remains only because an
    /// out-of-workspace delegating agent (the `perfbench` probe) still
    /// forwards it.
    fn interests_fixed(&self) -> bool {
        true
    }

    /// The trap numbers this agent accepts as *vectored upcalls*: instead
    /// of one [`Agent::syscall`] per trap, consecutive same-number traps
    /// are executed directly by the kernel and delivered afterwards as one
    /// [`Agent::syscall_batch`] with per-element results. A number is
    /// vectored only when *every* agent on the chain interested in it
    /// declares it batchable — agents that transform calls must not list
    /// numbers here, only observers should.
    fn batch_interests(&self) -> InterestSet {
        InterestSet::NONE
    }

    /// A vectored upcall: `calls` are consecutive traps of `nr` the kernel
    /// already executed, each with its raw arguments and applied result.
    /// Only invoked for numbers in [`Agent::batch_interests`].
    fn syscall_batch(&mut self, _ctx: &mut SysCtx<'_>, _nr: u32, _calls: &[BatchCall]) {}

    /// Clones the agent for a forked child.
    fn clone_box(&self) -> Box<dyn Agent>;
}

/// The context an agent executes in: the kernel below it, the client pid,
/// and the rest of the chain beneath it.
pub struct SysCtx<'a> {
    /// The kernel (the bottom instance of the interface). Agents may
    /// inspect it, but should reach it through [`SysCtx::down`] so stacked
    /// agents keep working.
    pub kernel: &'a mut Kernel,
    /// The client process this trap belongs to.
    pub pid: Pid,
    /// Agents below the current one.
    below: &'a mut [Box<dyn Agent>],
    /// How many times this trap has been restarted after blocking (0 on
    /// first delivery). Agents with entry-time side effects can use this to
    /// avoid double-logging restarts.
    pub restarts: u32,
}

impl<'a> SysCtx<'a> {
    /// Builds a context (used by the router and the loader).
    pub fn new(
        kernel: &'a mut Kernel,
        pid: Pid,
        below: &'a mut [Box<dyn Agent>],
        restarts: u32,
    ) -> SysCtx<'a> {
        SysCtx {
            kernel,
            pid,
            below,
            restarts,
        }
    }

    /// Invokes the next instance of the system interface below this agent —
    /// the simulated `htg_unix_syscall()`. Charges the measured downcall
    /// overhead (37 µs on the i486) to the virtual clock.
    pub fn down(&mut self, nr: u32, args: RawArgs) -> SysOutcome {
        let cost = self.kernel.profile.downcall_ns;
        self.kernel.clock.advance_ns(cost);
        if let Ok(p) = self.kernel.proc_mut(self.pid) {
            p.usage.sys_ns += cost;
        }
        dispatch_chain(self.kernel, self.pid, self.below, nr, args, self.restarts)
    }

    /// Like [`SysCtx::down`] with a symbolic call number.
    pub fn down_sys(&mut self, nr: ia_abi::Sysno, args: RawArgs) -> SysOutcome {
        self.down(nr.number(), args)
    }

    /// The current virtual time, for agents that log timestamps.
    #[must_use]
    pub fn now(&self) -> ia_abi::Timeval {
        self.kernel.clock.now()
    }
}

/// Dispatches a trap into `chain` (top first), skipping agents that did not
/// register interest in `nr`, bottoming out in the kernel. Each agent
/// method invocation is charged the virtual-dispatch cost from Table 3-4;
/// skipped agents cost nothing.
pub fn dispatch_chain(
    kernel: &mut Kernel,
    pid: Pid,
    chain: &mut [Box<dyn Agent>],
    nr: u32,
    args: RawArgs,
    restarts: u32,
) -> SysOutcome {
    let Some(first) = chain.iter().position(|a| a.interests().contains(nr)) else {
        return kernel.syscall(pid, nr, args);
    };
    // The virtual-call cost is charged before the agent's obs
    // frame opens: it is paid by the *caller* crossing into the
    // agent, so it attributes to the calling layer.
    let vcost = kernel.profile.virtual_call_ns;
    kernel.clock.advance_ns(vcost);
    if let Ok(p) = kernel.proc_mut(pid) {
        p.usage.sys_ns += vcost;
    }
    let layer = chain[first].name();
    kernel
        .obs
        .layer_enter(layer, pid, nr, kernel.clock.elapsed_ns());
    let (cur, below) = chain.split_at_mut(first + 1);
    let mut ctx = SysCtx::new(kernel, pid, below, restarts);
    let out = cur[first].syscall(&mut ctx, nr, args);
    kernel
        .obs
        .layer_exit(layer, pid, nr, out.obs_outcome(), kernel.clock.elapsed_ns());
    out
}

/// Runs the upward signal path through `chain` (top agent closest to the
/// kernel is consulted *last*: the application-facing agent decides first).
///
/// Chain order note: the chain is stored top-first for downcalls (the
/// agent wrapped last sees traps first). Signals travel the other way —
/// from the kernel up — so the *bottom* agent sees them first.
pub fn signal_chain(
    kernel: &mut Kernel,
    pid: Pid,
    chain: &mut [Box<dyn Agent>],
    sig: Signal,
) -> Option<Signal> {
    let mut current = sig;
    for i in (0..chain.len()).rev() {
        let (cur, below) = chain.split_at_mut(i + 1);
        let mut ctx = SysCtx::new(kernel, pid, below, 0);
        match cur[i].signal_incoming(&mut ctx, current) {
            SignalVerdict::Deliver => {}
            SignalVerdict::Suppress => return None,
            SignalVerdict::Replace(s) => current = s,
        }
    }
    Some(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_abi::Sysno;
    use ia_kernel::KernelBuilder;

    /// Adds a fixed offset to gettimeofday's seconds — a micro-timex.
    struct Shift(i64);

    impl Agent for Shift {
        fn name(&self) -> &'static str {
            "shift"
        }
        fn interests(&self) -> InterestSet {
            InterestSet::of(&[Sysno::Gettimeofday])
        }
        fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
            let out = ctx.down(nr, args);
            if let SysOutcome::Done(Ok(_)) = out {
                if args[0] != 0 {
                    if let Ok(p) = ctx.kernel.proc_mut(ctx.pid) {
                        if let Ok(mut tv) = p.mem.read_struct::<ia_abi::Timeval>(args[0]) {
                            tv.sec += self.0;
                            let _ = p.mem.write_struct(args[0], &tv);
                        }
                    }
                }
            }
            out
        }
        fn clone_box(&self) -> Box<dyn Agent> {
            Box::new(Shift(self.0))
        }
    }

    fn setup() -> (Kernel, Pid) {
        let mut k = KernelBuilder::new().build();
        let img = ia_vm::assemble("main: halt\n").unwrap();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        (k, pid)
    }

    #[test]
    fn uninterested_traps_reach_kernel_directly() {
        let (mut k, pid) = setup();
        let mut chain: Vec<Box<dyn Agent>> = vec![Box::new(Shift(100))];
        let out = dispatch_chain(&mut k, pid, &mut chain, Sysno::Getpid.number(), [0; 6], 0);
        assert_eq!(out, SysOutcome::Done(Ok([u64::from(pid), 0])));
    }

    #[test]
    fn interested_trap_is_transformed() {
        let (mut k, pid) = setup();
        // Scratch space in the process for the timeval.
        let addr = 0x2000;
        let mut chain: Vec<Box<dyn Agent>> = vec![Box::new(Shift(3600))];
        let out = dispatch_chain(
            &mut k,
            pid,
            &mut chain,
            Sysno::Gettimeofday.number(),
            [addr, 0, 0, 0, 0, 0],
            0,
        );
        assert!(matches!(out, SysOutcome::Done(Ok(_))));
        let tv = k
            .proc(pid)
            .unwrap()
            .mem
            .read_struct::<ia_abi::Timeval>(addr)
            .unwrap();
        assert_eq!(tv.sec, k.clock.now().sec + 3600);
    }

    #[test]
    fn stacked_shifts_compose() {
        let (mut k, pid) = setup();
        let addr = 0x2000;
        let mut chain: Vec<Box<dyn Agent>> = vec![Box::new(Shift(10)), Box::new(Shift(100))];
        dispatch_chain(
            &mut k,
            pid,
            &mut chain,
            Sysno::Gettimeofday.number(),
            [addr, 0, 0, 0, 0, 0],
            0,
        );
        let tv = k
            .proc(pid)
            .unwrap()
            .mem
            .read_struct::<ia_abi::Timeval>(addr)
            .unwrap();
        assert_eq!(tv.sec, k.clock.now().sec + 110, "both agents applied");
    }

    #[test]
    fn downcall_charges_the_virtual_clock() {
        let (mut k, pid) = setup();
        let before = k.clock.elapsed_ns();
        let mut chain: Vec<Box<dyn Agent>> = vec![Box::new(Shift(1))];
        dispatch_chain(
            &mut k,
            pid,
            &mut chain,
            Sysno::Gettimeofday.number(),
            [0x2000, 0, 0, 0, 0, 0],
            0,
        );
        let delta = k.clock.elapsed_ns() - before;
        // virtual dispatch + downcall + the call's own base cost
        let min = k.profile.virtual_call_ns
            + k.profile.downcall_ns
            + k.profile.syscall_base_ns(Sysno::Gettimeofday);
        assert!(delta >= min, "charged {delta} < {min}");
    }

    struct Suppressor;
    impl Agent for Suppressor {
        fn name(&self) -> &'static str {
            "suppressor"
        }
        fn interests(&self) -> InterestSet {
            InterestSet::NONE
        }
        fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
            ctx.down(nr, args)
        }
        fn signal_incoming(&mut self, _: &mut SysCtx<'_>, sig: Signal) -> SignalVerdict {
            if sig == Signal::SIGTERM {
                SignalVerdict::Suppress
            } else if sig == Signal::SIGUSR1 {
                SignalVerdict::Replace(Signal::SIGUSR2)
            } else {
                SignalVerdict::Deliver
            }
        }
        fn clone_box(&self) -> Box<dyn Agent> {
            Box::new(Suppressor)
        }
    }

    #[test]
    fn signal_chain_suppresses_and_replaces() {
        let (mut k, pid) = setup();
        let mut chain: Vec<Box<dyn Agent>> = vec![Box::new(Suppressor)];
        assert_eq!(signal_chain(&mut k, pid, &mut chain, Signal::SIGTERM), None);
        assert_eq!(
            signal_chain(&mut k, pid, &mut chain, Signal::SIGUSR1),
            Some(Signal::SIGUSR2)
        );
        assert_eq!(
            signal_chain(&mut k, pid, &mut chain, Signal::SIGINT),
            Some(Signal::SIGINT)
        );
    }
}
