//! Each process's agent chain, kept in its [`ia_kernel::Process`] as its
//! [`Emulation`], so it dies with the process and every kernel snapshot,
//! branch and restore carries it. The functions here are the
//! `task_set_emulation` surface; they take the kernel, which holds the
//! chains.

use std::any::Any;

use ia_kernel::{BatchCall, Emulation, Kernel, Pid, SysOutcome};

use crate::agent::{Agent, SysCtx};
use crate::interest::InterestSet;

/// Consecutive same-number calls awaiting delivery as one vectored upcall.
#[derive(Clone)]
pub(crate) struct PendingBatch {
    pub(crate) nr: u32,
    pub(crate) calls: Vec<BatchCall>,
}

/// One process's agent chain plus everything compiled from it whenever it
/// changes: the interest union, the batchable-number set, and any pending
/// vectored upcall.
#[derive(Default)]
pub(crate) struct Chain {
    pub(crate) agents: Vec<Box<dyn Agent>>,
    pub(crate) interest: InterestSet,
    /// Numbers where every interested agent accepts vectored upcalls.
    pub(crate) batchable: InterestSet,
    pub(crate) pending: Option<PendingBatch>,
}

impl Emulation for Chain {
    /// Clones every agent through [`Agent::clone_box`] — the `fork` rule,
    /// so a copy shares what a forked clone would — and the pending batch,
    /// undelivered.
    fn clone_box(&self) -> Box<dyn Emulation> {
        let mut chain = Chain {
            agents: self.agents.iter().map(|a| a.clone_box()).collect(),
            pending: self.pending.clone(),
            ..Chain::default()
        };
        chain.recompute();
        Box::new(chain)
    }
}

impl Chain {
    /// Recompiles every cached set from the current agent list. Called on
    /// each chain change (install, removal, fork, copy) — this *is* the
    /// batching and in-loop answer invalidation rule: change implies
    /// recompilation.
    pub(crate) fn recompute(&mut self) {
        self.interest = self
            .agents
            .iter()
            .fold(InterestSet::NONE, |acc, a| acc.union(&a.interests()));
        self.batchable = InterestSet::NONE;
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
    pub(crate) fn flush(&mut self, k: &mut Kernel, pid: Pid) {
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

/// The chain in a process's emulation slot, read in place.
pub(crate) fn as_chain(slot: &Option<Box<dyn Emulation>>) -> Option<&Chain> {
    let e: &dyn Any = slot.as_deref()?;
    e.downcast_ref()
}

/// A process's emulation, downcast back to its chain.
pub(crate) fn into_chain(e: Box<dyn Emulation>) -> Option<Box<Chain>> {
    let e: Box<dyn Any> = e;
    e.downcast().ok()
}

/// `pid`'s chain, read in place.
pub(crate) fn chain(k: &Kernel, pid: Pid) -> Option<&Chain> {
    as_chain(&k.proc(pid).ok()?.emulation)
}

/// Takes `pid`'s chain out of the kernel, so its agents can run with
/// `&mut Kernel`. Give it back with [`Kernel::set_emulation`].
pub(crate) fn take_chain(k: &mut Kernel, pid: Pid) -> Option<Box<Chain>> {
    into_chain(k.take_emulation(pid)?)
}

/// Pushes an agent on top of `pid`'s chain (the new agent sees traps
/// first). This is the simulated `task_set_emulation()` registration.
pub fn push_agent(k: &mut Kernel, pid: Pid, agent: Box<dyn Agent>) {
    if k.proc(pid).is_ok() {
        let mut chain = take_chain(k, pid).unwrap_or_default();
        chain.agents.insert(0, agent);
        chain.recompute();
        k.set_emulation(pid, chain);
    }
}

/// Delivers any pending vectored upcall for `pid` immediately. Callers
/// that change the chain (the loader, tests driving [`with_chain`]) use
/// this first so agents observe the calls made under the *old* chain
/// configuration before it changes.
pub fn flush_pending(k: &mut Kernel, pid: Pid) {
    if let Some(mut chain) = take_chain(k, pid) {
        chain.flush(k, pid);
        k.set_emulation(pid, chain);
    }
}

/// Removes every agent from `pid`'s chain, returning them.
pub fn remove_chain(k: &mut Kernel, pid: Pid) -> Vec<Box<dyn Agent>> {
    take_chain(k, pid).map_or(Vec::new(), |c| c.agents)
}

/// True if `pid` runs under at least one agent.
#[must_use]
pub fn has_chain(k: &Kernel, pid: Pid) -> bool {
    chain(k, pid).is_some_and(|c| !c.agents.is_empty())
}

/// Number of agents wrapped around `pid`.
#[must_use]
pub fn chain_len(k: &Kernel, pid: Pid) -> usize {
    chain(k, pid).map_or(0, |c| c.agents.len())
}

/// Borrow an agent on a chain (top = 0), for post-run inspection by tests
/// and tools.
#[must_use]
pub fn agent(k: &Kernel, pid: Pid, idx: usize) -> Option<&dyn Agent> {
    chain(k, pid)?.agents.get(idx).map(AsRef::as_ref)
}

/// Runs a closure against `pid`'s agents, downcast by the caller, then
/// recompiles the chain. (Rust-side replacement for the paper's direct
/// object access.)
pub fn with_chain<R>(
    k: &mut Kernel,
    pid: Pid,
    f: impl FnOnce(&mut Vec<Box<dyn Agent>>) -> R,
) -> Option<R> {
    let e: &mut dyn Any = k.proc_mut(pid).ok()?.emulation.as_deref_mut()?;
    let chain = e.downcast_mut::<Chain>()?;
    let r = f(&mut chain.agents);
    chain.recompute();
    Some(r)
}
