//! The interposed router: runs traps through the agent chains the kernel
//! keeps in each process.

use ia_abi::{RawArgs, Signal, Sysno};
use ia_kernel::{BatchCall, FastSpec, Kernel, Pid, SysOutcome, SyscallRouter};

use crate::agent::{dispatch_chain, signal_chain};
use crate::chain::{as_chain, chain, has_chain, into_chain, take_chain, PendingBatch};

/// Maximum calls buffered in one vectored upcall before it is flushed.
pub const BATCH_CAP: usize = 32;

/// Counters describing how the router sent traps, for experiments. Chain
/// forks and teardowns are the kernel's (see [`ia_kernel::Emulation`]), so
/// they are not counted here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Traps that entered an agent chain.
    pub intercepted: u64,
    /// Traps that bypassed the chain (pay-per-use fast path).
    pub passthrough: u64,
    /// Traps on processes with no chain at all.
    pub unmanaged: u64,
}

/// A [`SyscallRouter`] that runs registered traps through per-process agent
/// chains before (or instead of) the kernel. The chains live in the
/// kernel's processes (see [`crate::chain`]); the router holds only its
/// host-side counters, so any router can drive any kernel.
///
/// ```
/// use ia_interpose::InterposedRouter;
/// use ia_kernel::{KernelBuilder, Kernel, RunOutcome, I486_25};
///
/// let mut kernel = KernelBuilder::new().build();
/// let image = ia_vm::assemble("main:\n li r0, 0\n sys exit\n").unwrap();
/// kernel.spawn_image(&image, &[b"p"], b"p");
/// let mut router = InterposedRouter::new(); // no agents yet: identity
/// assert_eq!(kernel.run_with(&mut router), RunOutcome::AllExited);
/// assert_eq!(router.stats.unmanaged, 1, "the exit trap bypassed agents");
/// ```
#[derive(Default)]
pub struct InterposedRouter {
    /// Observation counters.
    pub stats: RouterStats,
}

impl InterposedRouter {
    /// A router with zeroed counters.
    #[must_use]
    pub fn new() -> InterposedRouter {
        InterposedRouter::default()
    }
}

impl SyscallRouter for InterposedRouter {
    fn route(
        &mut self,
        k: &mut Kernel,
        pid: Pid,
        nr: u32,
        args: RawArgs,
        restarts: u32,
    ) -> SysOutcome {
        let slot = k.proc_mut(pid).ok().map(|p| &mut p.emulation);
        // Agents run only in the intercepted branch below, with the chain
        // out of the process, so `managed` holds for the whole call.
        let Some((managed, interested)) = slot
            .as_deref()
            .and_then(as_chain)
            .map(|c| (!c.agents.is_empty(), c.interest.contains(nr)))
        else {
            self.stats.unmanaged += 1;
            return k.syscall(pid, nr, args);
        };
        let out = if interested {
            // The agents need `&mut Kernel`, so the chain leaves the
            // process while they run. It goes back even if the process
            // is now a zombie, for the kernel's exit hook.
            let mut chain = slot
                .and_then(Option::take)
                .and_then(into_chain)
                .expect("read above");
            self.stats.intercepted += 1;
            let out = if chain.batchable.contains(nr) {
                // Vectored upcall path (independent of the fast path and
                // the engine): the kernel executes the call now;
                // interested agents observe it later, in one batch.
                if chain.pending.as_ref().is_some_and(|b| b.nr != nr) {
                    chain.flush(k, pid);
                }
                let out = k.syscall(pid, nr, args);
                match out {
                    SysOutcome::Done(res) => {
                        let batch = chain.pending.get_or_insert_with(|| PendingBatch {
                            nr,
                            calls: Vec::new(),
                        });
                        batch.calls.push(BatchCall { args, ret: res });
                        if batch.calls.len() >= BATCH_CAP {
                            chain.flush(k, pid);
                        }
                    }
                    // Blocked or no-return calls cannot sit in a batch;
                    // deliver what we have so agents stay ordered.
                    _ => chain.flush(k, pid),
                }
                out
            } else {
                // An individually intercepted call must not overtake a
                // pending batch: agents observe calls in order.
                chain.flush(k, pid);
                // The obs enter comes first so the trap-redirection cost
                // below is attributed to the "interpose" pseudo-layer.
                k.obs
                    .layer_enter("interpose", pid, nr, k.clock.elapsed_ns());
                let cost = k.profile.intercept_ns;
                k.clock.advance_ns(cost);
                if let Ok(p) = k.proc_mut(pid) {
                    p.usage.sys_ns += cost;
                }
                let out = dispatch_chain(k, pid, &mut chain.agents, nr, args, restarts);
                k.obs.layer_exit(
                    "interpose",
                    pid,
                    nr,
                    out.obs_outcome(),
                    k.clock.elapsed_ns(),
                );
                out
            };
            k.set_emulation(pid, chain);
            out
        } else {
            // Pay-per-use: no agent cost at all.
            self.stats.passthrough += 1;
            k.syscall(pid, nr, args)
        };
        // A successful execve under an agent pays the reimplementation tax:
        // the toolkit rebuilds the exec sequence from lower-level
        // primitives (§3.5.1.2).
        if managed
            && matches!(out, SysOutcome::NoReturn)
            && Sysno::from_u32(nr) == Some(Sysno::Execve)
        {
            k.clock.advance_ns(k.profile.agent_exec_ns);
        }
        out
    }

    fn filter_signal(&mut self, k: &mut Kernel, pid: Pid, sig: Signal) -> bool {
        if !has_chain(k, pid) {
            return true;
        }
        let mut chain = take_chain(k, pid).expect("read above");
        // Agents must observe batched calls before the signal they might
        // react to.
        chain.flush(k, pid);
        let verdict = signal_chain(k, pid, &mut chain.agents, sig);
        k.set_emulation(pid, chain);
        match verdict {
            Some(s) if s == sig => true,
            Some(replacement) => {
                // Deliver the replacement on the next delivery pass.
                let _ = k.post_signal(pid, replacement);
                false
            }
            None => false,
        }
    }

    fn fast_spec(&mut self, k: &Kernel, pid: Pid) -> FastSpec {
        let Some(chain) = chain(k, pid) else {
            return FastSpec::DIRECT;
        };
        // A number is answered in the loop only when no agent is
        // interested in it; everything else ends the burst and is routed.
        let direct = |nr: Sysno| !chain.interest.contains(nr.number());
        FastSpec {
            getpid: direct(Sysno::Getpid),
            gtod: direct(Sysno::Gettimeofday),
        }
    }

    fn note_fast_direct(&mut self, k: &mut Kernel, pid: Pid, _nr: u32, count: u64) {
        // Mirrors what `route` would have counted per call: pay-per-use
        // passthrough under a chain, unmanaged without one. Direct calls
        // never flush a pending batch — the slow path would not have
        // flushed on a passthrough either.
        if chain(k, pid).is_some() {
            self.stats.passthrough += count;
        } else {
            self.stats.unmanaged += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, SignalVerdict, SysCtx};
    use crate::chain::push_agent;
    use crate::interest::InterestSet;
    use ia_abi::Sysno;
    use ia_kernel::RunOutcome;

    /// Counts every trap it sees; interested in everything.
    #[derive(Default)]
    struct Counter {
        seen: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Agent for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn interests(&self) -> InterestSet {
            InterestSet::ALL
        }
        fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
            self.seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            ctx.down(nr, args)
        }
        fn clone_box(&self) -> Box<dyn Agent> {
            Box::new(Counter {
                seen: self.seen.clone(),
            })
        }
    }

    #[test]
    fn transparent_counter_agent_preserves_behaviour() {
        let src = r#"
            .data
            msg: .asciz "out"
            .text
            main:
                li r0, 1
                la r1, msg
                li r2, 3
                sys write
                li r0, 0
                sys exit
        "#;
        // Without an agent:
        let mut k1 = ia_kernel::KernelBuilder::new().build();
        let img = ia_vm::assemble(src).unwrap();
        k1.spawn_image(&img, &[b"t"], b"t");
        k1.run_to_completion();

        // With the counter agent:
        let mut k2 = ia_kernel::KernelBuilder::new().build();
        let pid = k2.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        let counter = Counter::default();
        let seen = counter.seen.clone();
        push_agent(&mut k2, pid, Box::new(counter));
        assert_eq!(k2.run_with(&mut router), RunOutcome::AllExited);

        assert_eq!(
            k1.console.output_string(),
            k2.console.output_string(),
            "agent is transparent"
        );
        assert_eq!(
            seen.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "write + exit intercepted"
        );
        assert!(
            k2.clock.elapsed_ns() > k1.clock.elapsed_ns(),
            "interposition costs time"
        );
    }

    #[test]
    fn pay_per_use_bypasses_chain() {
        let mut k = ia_kernel::KernelBuilder::new().build();
        let img = ia_vm::assemble("main: sys getpid\n sys getpid\n li r0,0\n sys exit\n").unwrap();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();

        /// Interested only in gettimeofday.
        struct Narrow;
        impl Agent for Narrow {
            fn name(&self) -> &'static str {
                "narrow"
            }
            fn interests(&self) -> InterestSet {
                InterestSet::of(&[Sysno::Gettimeofday])
            }
            fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
                ctx.down(nr, args)
            }
            fn clone_box(&self) -> Box<dyn Agent> {
                Box::new(Narrow)
            }
        }
        push_agent(&mut k, pid, Box::new(Narrow));
        k.run_with(&mut router);
        assert_eq!(router.stats.intercepted, 0);
        assert_eq!(router.stats.passthrough, 3, "getpid x2 + exit bypassed");
    }

    #[test]
    fn forked_child_inherits_chain() {
        let src = r#"
            main:
                sys fork
                jz r0, child
                li r0, 0
                li r1, 0
                li r2, 0
                li r3, 0
                sys wait4
                li r0, 0
                sys exit
            child:
                sys getpid
                li r0, 0
                sys exit
        "#;
        let mut k = ia_kernel::KernelBuilder::new().build();
        let img = ia_vm::assemble(src).unwrap();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        let counter = Counter::default();
        let seen = counter.seen.clone();
        push_agent(&mut k, pid, Box::new(counter));
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        // fork + wait4 + exit (parent) + getpid + exit (child) — the
        // child's traps were intercepted too because the chain forked.
        // wait4 may be dispatched more than once if it blocked; require at
        // least the five logical calls.
        let n = seen.load(std::sync::atomic::Ordering::Relaxed);
        assert!(n >= 5, "saw {n}");
        assert_eq!(router.stats.unmanaged, 0, "the child ran under the chain");
    }

    #[test]
    fn exit_removes_chain() {
        let mut k = ia_kernel::KernelBuilder::new().build();
        let img = ia_vm::assemble("main: li r0,0\n sys exit\n").unwrap();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        push_agent(&mut k, pid, Box::new(Counter::default()));
        assert!(has_chain(&k, pid));
        k.run_with(&mut router);
        assert!(!has_chain(&k, pid));
    }

    /// Suppresses SIGTERM — a tiny "protected environment".
    struct Shield;
    impl Agent for Shield {
        fn name(&self) -> &'static str {
            "shield"
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
            } else {
                SignalVerdict::Deliver
            }
        }
        fn clone_box(&self) -> Box<dyn Agent> {
            Box::new(Shield)
        }
    }

    #[test]
    fn agent_suppresses_fatal_signal() {
        // The program SIGTERMs itself, then prints — it survives only if
        // the agent suppressed the signal.
        let src = r#"
            .data
            msg: .asciz "alive"
            .text
            main:
                sys getpid
                li r1, 15
                sys kill
                li r0, 1
                la r1, msg
                li r2, 5
                sys write
                li r0, 0
                sys exit
        "#;
        let mut k = ia_kernel::KernelBuilder::new().build();
        let img = ia_vm::assemble(src).unwrap();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        push_agent(&mut k, pid, Box::new(Shield));
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(k.console.output_string(), "alive");
    }
}
