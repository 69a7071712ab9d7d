//! Process state: machine context, credentials, descriptors, signals.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use ia_abi::signal::{SigDisposition, SigSet, Signal};
use ia_abi::{RawArgs, Timeval};
use ia_vfs::Ino;
use ia_vm::{AddressSpace, FusedProgram, Insn, VmState};

use crate::files::FdTable;

/// Process identifier.
pub type Pid = u32;

/// Something a blocked process is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitChannel {
    /// A pipe to become readable (or hang up).
    PipeReadable(ia_vfs::PipeId),
    /// A pipe to gain space (or hang up).
    PipeWritable(ia_vfs::PipeId),
    /// Any child to change state.
    Child,
    /// Any signal (`sigsuspend`).
    AnySignal,
    /// `select`: any descriptor activity or the timeout held in
    /// [`Process::select_deadline`].
    Select,
    /// Terminal input.
    TtyInput,
    /// A listening socket's backlog to become non-empty.
    SockAccept,
}

/// A trap that must be re-dispatched when its wait channel fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingTrap {
    /// Raw syscall number.
    pub nr: u32,
    /// Raw arguments.
    pub args: RawArgs,
    /// How many times this trap has been restarted.
    pub restarts: u32,
}

/// Scheduler-visible process state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Ready to run.
    Runnable,
    /// Waiting on a channel, with the trap to restart.
    Blocked(WaitChannel),
    /// Stopped by a job-control signal; resumed by `SIGCONT`.
    Stopped,
    /// Exited, holding the wait-status word for the parent.
    Zombie(u32),
}

/// Per-signal disposition plus the mask to apply while handling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SigAction {
    /// What to do.
    pub disposition: SigDisposition,
    /// Extra signals blocked during the handler.
    pub mask: SigSet,
}

/// A process's signal state.
#[derive(Debug, Clone, Default)]
pub struct SigState {
    /// Signals posted but not yet delivered.
    pub pending: SigSet,
    /// Signals currently blocked.
    pub mask: SigSet,
    /// Disposition of each signal (index = signo − 1).
    pub actions: [SigAction; 31],
    /// Saved mask for `sigsuspend` to restore on return.
    pub suspend_saved: Option<SigSet>,
}

impl SigState {
    /// Posts a signal (idempotent while pending).
    pub fn post(&mut self, sig: Signal) {
        self.pending.add(sig);
    }

    /// The action currently installed for `sig`.
    #[must_use]
    pub fn action(&self, sig: Signal) -> SigAction {
        self.actions[(sig.number() - 1) as usize]
    }

    /// Installs an action, returning the old one. SIGKILL/SIGSTOP cannot be
    /// caught or ignored.
    pub fn set_action(&mut self, sig: Signal, act: SigAction) -> Result<SigAction, ia_abi::Errno> {
        if sig.uncatchable() && !matches!(act.disposition, SigDisposition::Default) {
            return Err(ia_abi::Errno::EINVAL);
        }
        let slot = &mut self.actions[(sig.number() - 1) as usize];
        let old = *slot;
        *slot = act;
        Ok(old)
    }

    /// The lowest pending signal not blocked by the mask, if any.
    #[must_use]
    pub fn deliverable(&self) -> Option<Signal> {
        self.pending.minus(self.mask).lowest()
    }

    /// Resets caught handlers to default (what `execve` does); ignored
    /// dispositions survive exec in BSD.
    pub fn reset_for_exec(&mut self) {
        for a in &mut self.actions {
            if matches!(a.disposition, SigDisposition::Handler(_)) {
                *a = SigAction::default();
            }
        }
    }
}

/// Resource-usage counters (`getrusage`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Instructions retired in user mode.
    pub user_insns: u64,
    /// Virtual ns spent in system calls.
    pub sys_ns: u64,
    /// Block-input operations (reads that reached the filesystem).
    pub inblock: u64,
    /// Block-output operations.
    pub oublock: u64,
    /// Signals delivered.
    pub nsignals: u64,
    /// Voluntary context switches (blocking).
    pub nvcsw: u64,
    /// Involuntary context switches (slice expiry).
    pub nivcsw: u64,
    /// System calls made, by trap count.
    pub nsyscalls: u64,
}

/// A process's interposition state — the paper's per-task emulation
/// vector. The kernel carries it without interpreting it: ia-interpose
/// keeps its agent chain here and gets it back by an [`Any`] downcast. It
/// dies with the process, is captured by every kernel snapshot and branch,
/// and is not copied by `fork` (the interposition layer forks it itself).
pub trait Emulation: Any + Send {
    /// A copy for a snapshot, branch or restore of the kernel.
    fn clone_box(&self) -> Box<dyn Emulation>;
}

impl Clone for Box<dyn Emulation> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

impl fmt::Debug for dyn Emulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Emulation")
    }
}

/// One simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent process id (0 = orphaned / kernel-spawned).
    pub ppid: Pid,
    /// Process group.
    pub pgrp: Pid,
    /// Machine registers and pc.
    pub vm: VmState,
    /// Data/stack address space.
    pub mem: AddressSpace,
    /// Code segment (shared after `fork`, replaced by `execve`).
    pub code: Arc<Vec<Insn>>,
    /// Superinstruction rewrite of `code`, derived once per image and
    /// shared exactly like it. Executed by the fused engine; never
    /// observable (analyze and the plain engine see raw code only).
    pub fused: Arc<FusedProgram>,
    /// Scheduler state.
    pub state: ProcState,
    /// A trap awaiting restart while blocked.
    pub pending_trap: Option<PendingTrap>,
    /// Descriptor table.
    pub fds: FdTable,
    /// Working directory inode.
    pub cwd: Ino,
    /// Root directory inode (`chroot`).
    pub root: Ino,
    /// Real user id.
    pub uid: u32,
    /// Effective user id.
    pub euid: u32,
    /// Real group id.
    pub gid: u32,
    /// Effective group id.
    pub egid: u32,
    /// File-creation mask.
    pub umask: u32,
    /// Signal state.
    pub sig: SigState,
    /// Resource usage.
    pub usage: Usage,
    /// Interval timer (`setitimer(ITIMER_REAL)`): next expiry in virtual ns
    /// and reload interval in ns (0 = one-shot).
    pub itimer: Option<(u64, u64)>,
    /// Command name, for diagnostics and `trace` output.
    pub name: Vec<u8>,
    /// Scheduling priority (`nice`); bookkeeping only.
    pub priority: i32,
    /// Deadline of the `select` in progress, in virtual ns (`u64::MAX` for
    /// none); kept across the call's restarts.
    pub select_deadline: Option<u64>,
    /// Interposition state (see [`Emulation`]); `None` when no agent
    /// chain is installed, and while the router has the chain out to run
    /// its agents.
    pub emulation: Option<Box<dyn Emulation>>,
}

impl Process {
    /// Effective credentials for filesystem permission checks.
    #[must_use]
    pub fn cred(&self) -> ia_vfs::Cred {
        ia_vfs::Cred::new(self.euid, self.egid)
    }

    /// True if this process may signal `other` (same effective or real uid,
    /// or superuser).
    #[must_use]
    pub fn can_signal(&self, other: &Process) -> bool {
        self.euid == 0 || self.euid == other.euid || self.uid == other.uid
    }

    /// Builds the `fork` child: identical machine state, descriptors and
    /// address space, whose clone copies only the extents the parent has
    /// written and allocates nothing for the rest, so a fork costs
    /// O(written bytes). The child starts runnable with fresh usage
    /// counters, no timer, no pending signals, no [`Emulation`], and a 0
    /// return value in its registers.
    #[must_use]
    pub fn fork_child(&self, child_pid: Pid) -> Process {
        let mut vm = self.vm.clone();
        vm.apply_sysret(Ok([0, 0]));
        let mut sig = self.sig.clone();
        sig.pending = SigSet::EMPTY;
        Process {
            pid: child_pid,
            ppid: self.pid,
            pgrp: self.pgrp,
            vm,
            mem: self.mem.clone(),
            code: Arc::clone(&self.code),
            fused: Arc::clone(&self.fused),
            state: ProcState::Runnable,
            pending_trap: None,
            fds: self.fds.clone(),
            cwd: self.cwd,
            root: self.root,
            uid: self.uid,
            euid: self.euid,
            gid: self.gid,
            egid: self.egid,
            umask: self.umask,
            sig,
            usage: Usage::default(),
            itimer: None,
            name: self.name.clone(),
            priority: self.priority,
            select_deadline: None,
            emulation: None,
        }
    }

    /// Converts the usage counters to the wire `Rusage`, given the profile's
    /// per-instruction cost for user time.
    #[must_use]
    pub fn rusage(&self, insn_ns: u64) -> ia_abi::Rusage {
        ia_abi::Rusage {
            utime: Timeval::from_micros((self.usage.user_insns * insn_ns / 1_000) as i64),
            stime: Timeval::from_micros((self.usage.sys_ns / 1_000) as i64),
            maxrss: self.mem.size() as u64 / 1024,
            inblock: self.usage.inblock,
            oublock: self.usage.oublock,
            nsignals: self.usage.nsignals,
            nvcsw: self.usage.nvcsw,
            nivcsw: self.usage.nivcsw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_abi::Errno;

    #[test]
    fn sigstate_post_and_deliver_order() {
        let mut s = SigState::default();
        s.post(Signal::SIGTERM);
        s.post(Signal::SIGHUP);
        assert_eq!(s.deliverable(), Some(Signal::SIGHUP));
        s.mask.add(Signal::SIGHUP);
        assert_eq!(s.deliverable(), Some(Signal::SIGTERM));
        s.mask.add(Signal::SIGTERM);
        assert_eq!(s.deliverable(), None);
    }

    #[test]
    fn sigkill_cannot_be_caught() {
        let mut s = SigState::default();
        let act = SigAction {
            disposition: SigDisposition::Handler(0x100),
            mask: SigSet::EMPTY,
        };
        assert_eq!(s.set_action(Signal::SIGKILL, act), Err(Errno::EINVAL));
        assert_eq!(s.set_action(Signal::SIGSTOP, act), Err(Errno::EINVAL));
        assert!(s.set_action(Signal::SIGTERM, act).is_ok());
    }

    #[test]
    fn exec_resets_handlers_but_keeps_ignores() {
        let mut s = SigState::default();
        s.set_action(
            Signal::SIGTERM,
            SigAction {
                disposition: SigDisposition::Handler(0x40),
                mask: SigSet::EMPTY,
            },
        )
        .unwrap();
        s.set_action(
            Signal::SIGINT,
            SigAction {
                disposition: SigDisposition::Ignore,
                mask: SigSet::EMPTY,
            },
        )
        .unwrap();
        s.reset_for_exec();
        assert!(matches!(
            s.action(Signal::SIGTERM).disposition,
            SigDisposition::Default
        ));
        assert!(matches!(
            s.action(Signal::SIGINT).disposition,
            SigDisposition::Ignore
        ));
    }
}
