//! The interposed router: attaches agent chains to the scheduler's trap
//! path.

use std::collections::HashMap;

use ia_abi::{RawArgs, Signal, Sysno};
use ia_kernel::{BatchCall, FastSpec, Kernel, KernelSnapshot, Pid, SysOutcome, SyscallRouter};

use crate::agent::{dispatch_chain, signal_chain, Agent, SysCtx};
use crate::interest::InterestSet;

/// Maximum calls buffered in one vectored upcall before it is flushed.
pub const BATCH_CAP: usize = 32;

/// Counters describing what the router did, for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Traps that entered an agent chain.
    pub intercepted: u64,
    /// Traps that bypassed the chain (pay-per-use fast path).
    pub passthrough: u64,
    /// Traps on processes with no chain at all.
    pub unmanaged: u64,
    /// Chains cloned into forked children.
    pub chains_forked: u64,
}

/// Consecutive same-number calls awaiting delivery as one vectored upcall.
struct PendingBatch {
    nr: u32,
    calls: Vec<BatchCall>,
}

/// One process's agent chain plus everything compiled from it at
/// install/modify time: the interest union, the batchable-number set, and
/// any pending vectored upcall.
struct Chain {
    agents: Vec<Box<dyn Agent>>,
    interest: InterestSet,
    /// Numbers where every interested agent accepts vectored upcalls.
    batchable: InterestSet,
    /// All agents report fixed interests, so `batchable` and the in-loop
    /// answer verdicts are trustworthy between mutations.
    fixed: bool,
    pending: Option<PendingBatch>,
}

impl Chain {
    fn new() -> Chain {
        Chain {
            agents: Vec::new(),
            interest: InterestSet::NONE,
            batchable: InterestSet::NONE,
            fixed: true,
            pending: None,
        }
    }

    /// Recompiles every cached set from the current agent list. Called on
    /// each chain mutation (install, removal, fork) — this *is* the
    /// batching and vDSO invalidation rule: mutation implies recompilation.
    fn recompute(&mut self) {
        self.interest = self
            .agents
            .iter()
            .fold(InterestSet::NONE, |acc, a| acc.union(&a.interests()));
        self.fixed = self.agents.iter().all(|a| a.interests_fixed());
        self.batchable = InterestSet::NONE;
        if !self.fixed {
            return;
        }
        for nr in self.interest.iter() {
            let all_batch = self
                .agents
                .iter()
                .all(|a| !a.interests().contains(nr) || a.batch_interests().contains(nr));
            if all_batch {
                self.batchable.add(nr);
            }
        }
    }

    /// Delivers the pending vectored upcall, if any: charges the single
    /// amortized interception cost and hands each batch-interested agent
    /// the recorded calls. Charging order mirrors the per-call intercepted
    /// path (intercept, then one virtual call per visited agent).
    fn flush(&mut self, k: &mut Kernel, pid: Pid) {
        let Some(batch) = self.pending.take() else {
            return;
        };
        let nr = batch.nr;
        k.obs
            .layer_enter("interpose", pid, nr, k.clock.elapsed_ns());
        let cost = k.profile.intercept_ns;
        k.clock.advance_ns(cost);
        if let Ok(p) = k.proc_mut(pid) {
            p.usage.sys_ns += cost;
        }
        for i in 0..self.agents.len() {
            if !self.agents[i].interests().contains(nr)
                || !self.agents[i].batch_interests().contains(nr)
            {
                continue;
            }
            let vcost = k.profile.virtual_call_ns;
            k.clock.advance_ns(vcost);
            if let Ok(p) = k.proc_mut(pid) {
                p.usage.sys_ns += vcost;
            }
            let layer = self.agents[i].name();
            k.obs.layer_enter(layer, pid, nr, k.clock.elapsed_ns());
            let (cur, below) = self.agents.split_at_mut(i + 1);
            let mut ctx = SysCtx::new(k, pid, below, 0);
            cur[i].syscall_batch(&mut ctx, nr, &batch.calls);
            k.obs.layer_exit(
                layer,
                pid,
                nr,
                SysOutcome::ok().obs_outcome(),
                k.clock.elapsed_ns(),
            );
        }
        k.obs.layer_exit(
            "interpose",
            pid,
            nr,
            SysOutcome::ok().obs_outcome(),
            k.clock.elapsed_ns(),
        );
    }
}

/// A [`SyscallRouter`] that runs registered traps through per-process agent
/// chains before (or instead of) the kernel.
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
    chains: HashMap<Pid, Chain>,
    /// Observation counters.
    pub stats: RouterStats,
}

impl InterposedRouter {
    /// A router with no chains: behaves exactly like the identity router
    /// until agents are loaded.
    #[must_use]
    pub fn new() -> InterposedRouter {
        InterposedRouter::default()
    }

    /// Pushes an agent on top of `pid`'s chain (the new agent sees traps
    /// first). This is the simulated `task_set_emulation()` registration.
    pub fn push_agent(&mut self, pid: Pid, agent: Box<dyn Agent>) {
        let chain = self.chains.entry(pid).or_insert_with(Chain::new);
        chain.agents.insert(0, agent);
        chain.recompute();
    }

    /// Delivers any pending vectored upcall for `pid` immediately. Callers
    /// that mutate the chain (the loader, tests driving [`Self::with_chain`])
    /// use this first so agents observe the calls made under the *old*
    /// chain configuration before it changes.
    pub fn flush_pending(&mut self, k: &mut Kernel, pid: Pid) {
        if let Some(chain) = self.chains.get_mut(&pid) {
            chain.flush(k, pid);
        }
    }

    /// Removes every agent from `pid`'s chain, returning them.
    pub fn remove_chain(&mut self, pid: Pid) -> Vec<Box<dyn Agent>> {
        self.chains.remove(&pid).map_or(Vec::new(), |c| c.agents)
    }

    /// True if `pid` runs under at least one agent.
    #[must_use]
    pub fn has_chain(&self, pid: Pid) -> bool {
        self.chains.get(&pid).is_some_and(|c| !c.agents.is_empty())
    }

    /// Number of agents wrapped around `pid`.
    #[must_use]
    pub fn chain_len(&self, pid: Pid) -> usize {
        self.chains.get(&pid).map_or(0, |c| c.agents.len())
    }

    /// Borrow an agent on a chain (top = 0), for post-run inspection by
    /// tests and tools.
    #[must_use]
    pub fn agent(&self, pid: Pid, idx: usize) -> Option<&dyn Agent> {
        self.chains
            .get(&pid)
            .and_then(|c| c.agents.get(idx))
            .map(AsRef::as_ref)
    }

    /// Runs a closure against an agent on the chain, downcast by the
    /// caller. (Rust-side replacement for the paper's direct object access.)
    pub fn with_chain<R>(
        &mut self,
        pid: Pid,
        f: impl FnOnce(&mut Vec<Box<dyn Agent>>) -> R,
    ) -> Option<R> {
        self.chains.get_mut(&pid).map(|c| {
            let r = f(&mut c.agents);
            c.recompute();
            r
        })
    }

    /// Clones `parent`'s chain onto `child` and runs `init_child` hooks —
    /// what happens implicitly on Mach because agents share the client's
    /// address space.
    fn fork_chain(&mut self, k: &mut Kernel, parent: Pid, child: Pid) {
        let Some(pc) = self.chains.get(&parent) else {
            return;
        };
        // Toolkit fork bookkeeping plus child-side agent initialization —
        // the paper's "approximately 10 milliseconds" added to fork.
        k.clock
            .advance_ns(k.profile.agent_fork_ns + k.profile.agent_child_init_ns);
        let mut agents: Vec<Box<dyn Agent>> = pc.agents.iter().map(|a| a.clone_box()).collect();
        for i in 0..agents.len() {
            let (cur, below) = agents.split_at_mut(i + 1);
            let mut ctx = SysCtx::new(k, child, below, 0);
            cur[i].init_child(&mut ctx);
        }
        let mut chain = Chain::new();
        chain.agents = agents;
        chain.recompute();
        self.chains.insert(child, chain);
        self.stats.chains_forked += 1;
    }
}

/// A capture of every agent chain, taken with [`InterposedRouter::snapshot`].
///
/// Agents are captured through `Agent::clone_box` — the same mechanism a
/// `fork` uses. Since [`Agent`] is `Send`, any interior state an agent
/// shares with its clones is held behind thread-safe handles
/// (`Arc<Mutex<…>>`, atomics); a capture therefore shares that state with
/// the live chain exactly as a forked chain would, and the whole snapshot
/// remains `Send`. Agents whose capture must be *independent* deep-copy in
/// `clone_box` instead. Either way the sharing is confined to one tenant —
/// nothing here may alias state in another tenant's world.
/// Compiled dispatch state (interest unions, batchable sets) is *not* captured:
/// [`InterposedRouter::restore`] recompiles it from the restored agents,
/// which is the chain-mutation invalidation rule applied to time travel.
pub struct RouterSnapshot {
    chains: Vec<(Pid, Vec<Box<dyn Agent>>)>,
    stats: RouterStats,
}

impl Clone for RouterSnapshot {
    fn clone(&self) -> Self {
        RouterSnapshot {
            chains: self
                .chains
                .iter()
                .map(|(pid, agents)| (*pid, agents.iter().map(|a| a.clone_box()).collect()))
                .collect(),
            stats: self.stats,
        }
    }
}

/// A full world capture: kernel state plus agent chains. Build with
/// [`snapshot_world`], rewind with [`restore_world`].
#[derive(Clone)]
pub struct WorldSnapshot {
    /// The kernel's world state.
    pub kernel: KernelSnapshot,
    /// The router's agent chains.
    pub router: RouterSnapshot,
}

impl WorldSnapshot {
    /// The kernel snapshot's unique id, for repro artifacts.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.kernel.id
    }
}

/// Captures kernel and router together. Pending vectored upcalls are
/// delivered first (they belong to the past, not the future), so the
/// capture never holds an in-flight batch.
pub fn snapshot_world(k: &mut Kernel, router: &mut InterposedRouter) -> WorldSnapshot {
    let router_snap = router.snapshot(k);
    WorldSnapshot {
        kernel: k.snapshot(),
        router: router_snap,
    }
}

/// Rewinds kernel and router to `snap`. See [`Kernel::restore`] and
/// [`InterposedRouter::restore`] for what each side does.
pub fn restore_world(k: &mut Kernel, router: &mut InterposedRouter, snap: &WorldSnapshot) {
    k.restore(&snap.kernel);
    router.restore(&snap.router);
}

impl InterposedRouter {
    /// Captures every agent chain. Any pending vectored upcall is flushed
    /// into `k` first (in pid order), so take the [`KernelSnapshot`]
    /// *after* this call — or use [`snapshot_world`], which orders the two
    /// correctly.
    pub fn snapshot(&mut self, k: &mut Kernel) -> RouterSnapshot {
        let mut pids: Vec<Pid> = self.chains.keys().copied().collect();
        pids.sort_unstable();
        for pid in &pids {
            self.flush_pending(k, *pid);
        }
        RouterSnapshot {
            chains: pids
                .into_iter()
                .map(|pid| {
                    let agents = self.chains[&pid]
                        .agents
                        .iter()
                        .map(|a| a.clone_box())
                        .collect();
                    (pid, agents)
                })
                .collect(),
            stats: self.stats,
        }
    }

    /// Rewinds every chain to `snap`. Live chains (and any pending upcall
    /// batches they hold) are discarded — the rewound world re-executes
    /// those calls itself — and each restored chain's interest union,
    /// batchable set and vDSO gating are recompiled from scratch.
    pub fn restore(&mut self, snap: &RouterSnapshot) {
        self.chains.clear();
        for (pid, agents) in &snap.chains {
            let mut chain = Chain::new();
            chain.agents = agents.iter().map(|a| a.clone_box()).collect();
            chain.recompute();
            self.chains.insert(*pid, chain);
        }
        self.stats = snap.stats;
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
        let first_new_pid = k.next_pid();

        let out = match self.chains.get_mut(&pid) {
            None => {
                self.stats.unmanaged += 1;
                k.syscall(pid, nr, args)
            }
            Some(chain) if chain.batchable.contains(nr) => {
                // Vectored upcall path (independent of the fast path and
                // the engine): the kernel executes the call now; interested
                // agents observe it later, in one batch.
                if chain.pending.as_ref().is_some_and(|b| b.nr != nr) {
                    chain.flush(k, pid);
                }
                self.stats.intercepted += 1;
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
            }
            Some(chain) if chain.interest.contains(nr) => {
                // An individually intercepted call must not overtake a
                // pending batch: agents observe calls in order.
                chain.flush(k, pid);
                self.stats.intercepted += 1;
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
            }
            Some(_) => {
                // Pay-per-use: no agent cost at all.
                self.stats.passthrough += 1;
                k.syscall(pid, nr, args)
            }
        };

        // A successful execve under an agent pays the reimplementation tax:
        // the toolkit rebuilds the exec sequence from lower-level
        // primitives (§3.5.1.2).
        if matches!(out, SysOutcome::NoReturn)
            && Sysno::from_u32(nr) == Some(Sysno::Execve)
            && self.has_chain(pid)
        {
            k.clock.advance_ns(k.profile.agent_exec_ns);
        }

        // Any child created during this trap (fork, possibly issued from
        // inside an agent or under a remapped number) inherits the chain.
        // Pids are never reused, so the children are among the pids
        // allocated during the call.
        if self.has_chain(pid) {
            for child in first_new_pid..k.next_pid() {
                if k.proc(child).is_ok_and(|p| p.ppid == pid) {
                    self.fork_chain(k, pid, child);
                }
            }
        }
        out
    }

    fn filter_signal(&mut self, k: &mut Kernel, pid: Pid, sig: Signal) -> bool {
        let Some(chain) = self.chains.get_mut(&pid) else {
            return true;
        };
        if chain.agents.is_empty() {
            return true;
        }
        // Agents must observe batched calls before the signal they might
        // react to.
        chain.flush(k, pid);
        match signal_chain(k, pid, &mut chain.agents, sig) {
            Some(s) if s == sig => true,
            Some(replacement) => {
                // Deliver the replacement on the next delivery pass.
                let _ = k.post_signal(pid, replacement);
                false
            }
            None => false,
        }
    }

    fn on_process_exit(&mut self, k: &mut Kernel, pid: Pid) {
        if let Some(mut chain) = self.chains.remove(&pid) {
            // Undelivered batched calls are observed before teardown.
            chain.flush(k, pid);
            // Agent teardown: close logs, flush state, release objects.
            k.clock.advance_ns(k.profile.agent_exit_ns);
        }
    }

    fn fast_spec(&mut self, _k: &Kernel, pid: Pid) -> FastSpec {
        let Some(chain) = self.chains.get(&pid) else {
            return FastSpec::DIRECT;
        };
        if chain.agents.is_empty() {
            return FastSpec::DIRECT;
        }
        if !chain.fixed {
            return FastSpec::OFF;
        }
        // A number is answered in the loop only when no agent is
        // interested in it; everything else ends the burst and is routed.
        let direct = |nr: Sysno| !chain.interest.contains(nr.number());
        FastSpec {
            getpid: direct(Sysno::Getpid),
            gtod: direct(Sysno::Gettimeofday),
        }
    }

    fn note_fast_direct(&mut self, _k: &mut Kernel, pid: Pid, _nr: u32, count: u64) {
        // Mirrors what `route` would have counted per call: pay-per-use
        // passthrough under a chain, unmanaged without one. Direct calls
        // never flush a pending batch — the slow path would not have
        // flushed on a passthrough either.
        if self.chains.contains_key(&pid) {
            self.stats.passthrough += count;
        } else {
            self.stats.unmanaged += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::SignalVerdict;
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
        router.push_agent(pid, Box::new(counter));
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
        router.push_agent(pid, Box::new(Narrow));
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
        router.push_agent(pid, Box::new(counter));
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(router.stats.chains_forked, 1);
        // fork + wait4 + exit (parent) + getpid + exit (child) — the
        // child's traps were intercepted too because the chain forked.
        // wait4 may be dispatched more than once if it blocked; require at
        // least the five logical calls.
        let n = seen.load(std::sync::atomic::Ordering::Relaxed);
        assert!(n >= 5, "saw {n}");
    }

    #[test]
    fn exit_removes_chain() {
        let mut k = ia_kernel::KernelBuilder::new().build();
        let img = ia_vm::assemble("main: li r0,0\n sys exit\n").unwrap();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        router.push_agent(pid, Box::new(Counter::default()));
        assert!(router.has_chain(pid));
        k.run_with(&mut router);
        assert!(!router.has_chain(pid));
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
        router.push_agent(pid, Box::new(Shield));
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(k.console.output_string(), "alive");
    }
}
