//! The `sandbox` agent — a "protected environment for running untrusted
//! binaries" (§1.4).
//!
//! "A wrapper environment ... that allows untrusted, possibly malicious,
//! binaries to be run within a restricted environment that monitors and
//! emulates the actions they take, possibly without actually performing
//! them, and limits the resources they can use in such a way that the
//! untrusted binaries are unaware of the restrictions."
//!
//! The policy supports hidden subtrees (`ENOENT`, as if absent), read-only
//! subtrees, write-quota and process-count limits, and call denial for
//! `fork`/`execve`/`kill`/sockets. Denied mutations are *emulated*: the
//! client sees a plausible result while nothing happens — set
//! [`SandboxPolicy::emulate_writes`].

use std::sync::{Arc, Mutex};

use ia_abi::{Errno, OpenFlags, Sysno};
use ia_interpose::InterestSet;
use ia_kernel::SysOutcome;
use ia_toolkit::{SymCtx, Symbolic, SymbolicSyscall};

/// An interactive ruling on an attempted operation — the paper's
/// "interactive decisions made by human beings during the protected
/// execution". The decider sees each would-be violation before the policy's
/// default applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ruling {
    /// Let the operation proceed for real.
    Allow,
    /// Refuse it (`EPERM`).
    Deny,
    /// Pretend it succeeded without performing it.
    Emulate,
}

/// A callback consulted on each policy hit: `(call, path) -> Ruling`.
pub type Decider = Arc<dyn Fn(&str, &[u8]) -> Ruling + Send + Sync>;

/// What the sandbox caught.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The call that violated policy.
    pub call: &'static str,
    /// The pathname involved, if any.
    pub path: Vec<u8>,
    /// What the client was told.
    pub result: &'static str,
}

/// Sandbox policy.
#[derive(Debug, Clone, Default)]
pub struct SandboxPolicy {
    /// Subtrees that appear not to exist.
    pub hidden: Vec<Vec<u8>>,
    /// Subtrees where any mutation is denied.
    pub readonly: Vec<Vec<u8>>,
    /// If non-empty, the only subtrees where mutation is allowed.
    pub writable_only: Vec<Vec<u8>>,
    /// Deny `fork`/`vfork`.
    pub deny_fork: bool,
    /// Deny `execve`.
    pub deny_exec: bool,
    /// Deny `kill` aimed at other processes.
    pub deny_kill_others: bool,
    /// Deny socket creation and rendezvous.
    pub deny_sockets: bool,
    /// Total bytes the client may write (quota).
    pub max_write_bytes: Option<u64>,
    /// When true, denied mutations *pretend to succeed* instead of
    /// returning an error — monitoring-and-emulating mode.
    pub emulate_writes: bool,
    /// If set, the only system calls the client may issue at all; anything
    /// outside the set is refused with `EPERM` before its method runs.
    /// `exit` and `sigreturn` are always allowed (a client that cannot exit
    /// would spin forever). [`SandboxAgent::from_footprint`] fills this with
    /// the statically inferred footprint of the binary.
    pub allowed_calls: Option<InterestSet>,
}

impl SandboxPolicy {
    /// True when some rule needs to inspect pathnames (or consult an
    /// interactive decider), so every call that might carry a path must be
    /// intercepted and the interests cannot be narrowed below `ALL`.
    fn path_sensitive(&self) -> bool {
        !self.hidden.is_empty()
            || !self.readonly.is_empty()
            || !self.writable_only.is_empty()
            || self.emulate_writes
    }

    /// The calls a handler must still see even when the allow-list lets
    /// them pass: denial flags and the write quota act *on allowed calls*.
    fn must_see(&self) -> InterestSet {
        let mut s = InterestSet::new();
        if self.max_write_bytes.is_some() {
            s.add_sys(Sysno::Write);
        }
        if self.deny_fork {
            s.add_sys(Sysno::Fork);
            s.add_sys(Sysno::Vfork);
        }
        if self.deny_exec {
            s.add_sys(Sysno::Execve);
        }
        if self.deny_kill_others {
            s.add_sys(Sysno::Kill);
        }
        if self.deny_sockets {
            s.add_sys(Sysno::Socket);
            s.add_sys(Sysno::Socketpair);
        }
        s
    }

    /// A restrictive default: everything read-only, no fork/exec/sockets.
    #[must_use]
    pub fn locked_down() -> SandboxPolicy {
        SandboxPolicy {
            readonly: vec![b"/".to_vec()],
            deny_fork: true,
            deny_exec: true,
            deny_kill_others: true,
            deny_sockets: true,
            ..SandboxPolicy::default()
        }
    }

    fn under(prefixes: &[Vec<u8>], path: &[u8]) -> bool {
        prefixes.iter().any(|p| {
            path == p.as_slice()
                || (path.starts_with(p)
                    && (p.as_slice() == b"/" || path.get(p.len()) == Some(&b'/')))
        })
    }

    /// True if `path` is hidden.
    #[must_use]
    pub fn is_hidden(&self, path: &[u8]) -> bool {
        Self::under(&self.hidden, path)
    }

    /// True if mutating `path` is forbidden.
    #[must_use]
    pub fn is_write_denied(&self, path: &[u8]) -> bool {
        if !self.writable_only.is_empty() && !Self::under(&self.writable_only, path) {
            return true;
        }
        Self::under(&self.readonly, path)
    }
}

/// Host-side view of the violations the sandbox recorded.
#[derive(Debug, Clone, Default)]
pub struct SandboxHandle {
    violations: Arc<Mutex<Vec<Violation>>>,
    written: Arc<Mutex<u64>>,
}

impl SandboxHandle {
    /// What the client tried and was refused (or fooled about).
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        self.violations.lock().unwrap().clone()
    }

    /// Bytes the client actually wrote.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        *self.written.lock().unwrap()
    }
}

/// The sandbox agent.
#[derive(Clone)]
pub struct Sandbox {
    /// The active policy.
    pub policy: SandboxPolicy,
    violations: Arc<Mutex<Vec<Violation>>>,
    written: Arc<Mutex<u64>>,
    decider: Option<Decider>,
}

/// Public constructor pairing agent and handle.
pub struct SandboxAgent;

impl SandboxAgent {
    /// Creates a sandbox with `policy`, returning the loadable agent and
    /// the host handle.
    #[must_use]
    #[allow(clippy::new_ret_no_self)] // factory: returns (agent, handle)
    pub fn new(policy: SandboxPolicy) -> (Box<Symbolic<Sandbox>>, SandboxHandle) {
        let handle = SandboxHandle::default();
        (
            Box::new(Symbolic::new(Sandbox {
                policy,
                violations: handle.violations.clone(),
                written: handle.written.clone(),
                decider: None,
            })),
            handle,
        )
    }

    /// Infers a least-privilege policy from the static syscall footprint of
    /// `image` (see `ia-analyze`): only the calls the binary can provably
    /// issue are allowed, and fork/exec/socket/kill are denied outright
    /// when the footprint cannot contain them. Returns the agent, the host
    /// handle, and the footprint the policy was derived from.
    ///
    /// Soundness inherits from the analyzer: the footprint over-approximates
    /// the dynamic behaviour — including control seized through signal
    /// handlers or corrupted `ret` slots — so a benign binary is never
    /// blocked by the allow-list; when the analyzer had to widen to ⊤ (an
    /// indirect syscall number, or a `sigreturn` whose forged context could
    /// resume anywhere) the inferred policy allows everything rather than
    /// guessing — derive a manual policy for such binaries.
    #[must_use]
    pub fn from_footprint(
        image: &ia_vm::Image,
    ) -> (Box<Symbolic<Sandbox>>, SandboxHandle, ia_analyze::Footprint) {
        let fp = ia_analyze::footprint(image);
        let mut allowed = fp.set;
        allowed.add_sys(Sysno::Exit);
        allowed.add_sys(Sysno::Sigreturn);
        let may = |calls: &[Sysno]| calls.iter().any(|&c| allowed.contains(c.number()));
        let policy = SandboxPolicy {
            allowed_calls: Some(allowed),
            deny_fork: !may(&[Sysno::Fork, Sysno::Vfork]),
            deny_exec: !may(&[Sysno::Execve]),
            deny_sockets: !may(&[
                Sysno::Socket,
                Sysno::Socketpair,
                Sysno::Bind,
                Sysno::Connect,
                Sysno::Accept,
                Sysno::Listen,
            ]),
            deny_kill_others: !may(&[Sysno::Kill]),
            ..SandboxPolicy::default()
        };
        let (agent, handle) = SandboxAgent::new(policy);
        (agent, handle, fp)
    }

    /// Like [`SandboxAgent::new`], with an interactive decider consulted
    /// for every would-be violation — the paper's human-in-the-loop
    /// protected execution.
    #[must_use]
    pub fn with_decider(
        policy: SandboxPolicy,
        decider: impl Fn(&str, &[u8]) -> Ruling + Send + Sync + 'static,
    ) -> (Box<Symbolic<Sandbox>>, SandboxHandle) {
        let handle = SandboxHandle::default();
        (
            Box::new(Symbolic::new(Sandbox {
                policy,
                violations: handle.violations.clone(),
                written: handle.written.clone(),
                decider: Some(Arc::new(decider)),
            })),
            handle,
        )
    }
}

impl Sandbox {
    fn violate(&self, call: &'static str, path: &[u8], result: &'static str) {
        self.violations.lock().unwrap().push(Violation {
            call,
            path: path.to_vec(),
            result,
        });
    }

    /// Asks the interactive decider (when present), else applies policy.
    fn ruling(&self, call: &str, path: &[u8]) -> Ruling {
        match &self.decider {
            Some(d) => d(call, path),
            None if self.policy.emulate_writes => Ruling::Emulate,
            None => Ruling::Deny,
        }
    }

    /// Applies the ruling for a policy hit. `None` means the operation was
    /// interactively allowed and must proceed for real; `Some(out)` is the
    /// outcome to return instead (emulated success or denial).
    fn gate(&mut self, call: &'static str, path: &[u8]) -> Option<SysOutcome> {
        match self.ruling(call, path) {
            Ruling::Allow => {
                self.violate(call, path, "allowed");
                None
            }
            Ruling::Emulate => {
                self.violate(call, path, "emulated");
                Some(SysOutcome::Done(Ok([0, 0])))
            }
            Ruling::Deny => {
                self.violate(call, path, "EPERM");
                Some(SysOutcome::Done(Err(Errno::EPERM)))
            }
        }
    }

    /// Shared gate for single-pathname mutations.
    fn gate_path_write(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        call: &'static str,
        sys: Sysno,
        path_addr: u64,
        args: [u64; 2],
    ) -> SysOutcome {
        let path = match ctx.read_path(path_addr) {
            Ok(p) => p,
            Err(e) => return SysOutcome::Done(Err(e)),
        };
        if self.policy.is_hidden(&path) {
            self.violate(call, &path, "ENOENT");
            return SysOutcome::Done(Err(Errno::ENOENT));
        }
        if self.policy.is_write_denied(&path) {
            if let Some(out) = self.gate(call, &path) {
                return out;
            }
        }
        ctx.down_args(sys, [path_addr, args[0], args[1], 0, 0, 0])
    }

    /// Shared gate for read-only pathname references (hide check only).
    fn gate_path_read(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        call: &'static str,
        sys: Sysno,
        path_addr: u64,
        args: [u64; 2],
    ) -> SysOutcome {
        let path = match ctx.read_path(path_addr) {
            Ok(p) => p,
            Err(e) => return SysOutcome::Done(Err(e)),
        };
        if self.policy.is_hidden(&path) {
            self.violate(call, &path, "ENOENT");
            return SysOutcome::Done(Err(Errno::ENOENT));
        }
        ctx.down_args(sys, [path_addr, args[0], args[1], 0, 0, 0])
    }
}

impl SymbolicSyscall for Sandbox {
    fn name(&self) -> &'static str {
        "sandbox"
    }

    fn interests(&self) -> InterestSet {
        // A pure allow-list policy (the `from_footprint` shape) only ever
        // acts on calls *outside* the allow-list, plus the handful its
        // denial flags and quota police. Registering exactly those keeps
        // in-footprint calls on the bypass/batching path — a from_footprint
        // sandbox must not suppress vectored upcalls (or pay per-call
        // interception) for calls the binary is entitled to. Path-sensitive
        // rules and interactive deciders still need to see everything.
        match &self.policy.allowed_calls {
            Some(allowed) if !self.policy.path_sensitive() && self.decider.is_none() => {
                allowed.complement().union(&self.policy.must_see())
            }
            // The sandbox must see everything it polices; reads of unhidden
            // files pass through at full interception cost — safety over
            // speed.
            _ => InterestSet::ALL,
        }
    }

    fn intercept(
        &mut self,
        _ctx: &mut SymCtx<'_, '_>,
        nr: u32,
        _args: ia_abi::RawArgs,
    ) -> Option<SysOutcome> {
        let allowed = self.policy.allowed_calls.as_ref()?;
        // exit and sigreturn are unconditionally permitted: the kernel
        // retries a refused exit forever, and a handler that cannot
        // sigreturn wedges the client.
        if nr == Sysno::Exit.number() || nr == Sysno::Sigreturn.number() || allowed.contains(nr) {
            return None;
        }
        let call = Sysno::from_u32(nr).map_or("syscall", Sysno::name);
        self.violate(call, b"", "EPERM");
        Some(SysOutcome::Done(Err(Errno::EPERM)))
    }

    fn sys_open(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        path: u64,
        flags: u64,
        mode: u64,
    ) -> SysOutcome {
        let p = match ctx.read_path(path) {
            Ok(p) => p,
            Err(e) => return SysOutcome::Done(Err(e)),
        };
        if self.policy.is_hidden(&p) {
            self.violate("open", &p, "ENOENT");
            return SysOutcome::Done(Err(Errno::ENOENT));
        }
        let wants_write = OpenFlags::new(flags as u32).writable()
            || flags & u64::from(OpenFlags::O_CREAT | OpenFlags::O_TRUNC) != 0;
        if wants_write && self.policy.is_write_denied(&p) {
            // Emulation can't fake a descriptor usefully: an interactive
            // Allow proceeds, anything else denies outright.
            if self.ruling("open", &p) == Ruling::Allow {
                self.violate("open", &p, "allowed");
            } else {
                self.violate("open", &p, "EPERM");
                return SysOutcome::Done(Err(Errno::EPERM));
            }
        }
        ctx.down_args(Sysno::Open, [path, flags, mode, 0, 0, 0])
    }

    fn sys_write(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, buf: u64, nbyte: u64) -> SysOutcome {
        if let Some(quota) = self.policy.max_write_bytes {
            if *self.written.lock().unwrap() + nbyte > quota {
                self.violate("write", b"", "EDQUOT");
                return SysOutcome::Done(Err(Errno::EDQUOT));
            }
        }
        let out = ctx.down_args(Sysno::Write, [fd, buf, nbyte, 0, 0, 0]);
        if let SysOutcome::Done(Ok([n, _])) = out {
            *self.written.lock().unwrap() += n;
        }
        out
    }

    fn sys_unlink(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64) -> SysOutcome {
        self.gate_path_write(ctx, "unlink", Sysno::Unlink, path, [0, 0])
    }

    fn sys_truncate(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, length: u64) -> SysOutcome {
        self.gate_path_write(ctx, "truncate", Sysno::Truncate, path, [length, 0])
    }

    fn sys_chmod(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, mode: u64) -> SysOutcome {
        self.gate_path_write(ctx, "chmod", Sysno::Chmod, path, [mode, 0])
    }

    fn sys_chown(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, uid: u64, gid: u64) -> SysOutcome {
        self.gate_path_write(ctx, "chown", Sysno::Chown, path, [uid, gid])
    }

    fn sys_mkdir(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, mode: u64) -> SysOutcome {
        self.gate_path_write(ctx, "mkdir", Sysno::Mkdir, path, [mode, 0])
    }

    fn sys_rmdir(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64) -> SysOutcome {
        self.gate_path_write(ctx, "rmdir", Sysno::Rmdir, path, [0, 0])
    }

    fn sys_mkfifo(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, mode: u64) -> SysOutcome {
        self.gate_path_write(ctx, "mkfifo", Sysno::Mkfifo, path, [mode, 0])
    }

    fn sys_mknod(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        path: u64,
        mode: u64,
        dev: u64,
    ) -> SysOutcome {
        self.gate_path_write(ctx, "mknod", Sysno::Mknod, path, [mode, dev])
    }

    fn sys_utimes(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, times: u64) -> SysOutcome {
        self.gate_path_write(ctx, "utimes", Sysno::Utimes, path, [times, 0])
    }

    fn sys_stat(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, statbuf: u64) -> SysOutcome {
        self.gate_path_read(ctx, "stat", Sysno::Stat, path, [statbuf, 0])
    }

    fn sys_lstat(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, statbuf: u64) -> SysOutcome {
        self.gate_path_read(ctx, "lstat", Sysno::Lstat, path, [statbuf, 0])
    }

    fn sys_access(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, mode: u64) -> SysOutcome {
        self.gate_path_read(ctx, "access", Sysno::Access, path, [mode, 0])
    }

    fn sys_readlink(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        path: u64,
        buf: u64,
        bufsize: u64,
    ) -> SysOutcome {
        self.gate_path_read(ctx, "readlink", Sysno::Readlink, path, [buf, bufsize])
    }

    fn sys_chdir(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64) -> SysOutcome {
        self.gate_path_read(ctx, "chdir", Sysno::Chdir, path, [0, 0])
    }

    fn sys_rename(&mut self, ctx: &mut SymCtx<'_, '_>, from: u64, to: u64) -> SysOutcome {
        let (pf, pt) = match (ctx.read_path(from), ctx.read_path(to)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return SysOutcome::Done(Err(e)),
        };
        if self.policy.is_hidden(&pf) || self.policy.is_hidden(&pt) {
            self.violate("rename", &pf, "ENOENT");
            return SysOutcome::Done(Err(Errno::ENOENT));
        }
        if self.policy.is_write_denied(&pf) || self.policy.is_write_denied(&pt) {
            if let Some(out) = self.gate("rename", &pf) {
                return out;
            }
        }
        ctx.down_args(Sysno::Rename, [from, to, 0, 0, 0, 0])
    }

    fn sys_link(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, newpath: u64) -> SysOutcome {
        let (pf, pt) = match (ctx.read_path(path), ctx.read_path(newpath)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return SysOutcome::Done(Err(e)),
        };
        if self.policy.is_hidden(&pf) || self.policy.is_hidden(&pt) {
            self.violate("link", &pf, "ENOENT");
            return SysOutcome::Done(Err(Errno::ENOENT));
        }
        if self.policy.is_write_denied(&pt) {
            if let Some(out) = self.gate("link", &pt) {
                return out;
            }
        }
        ctx.down_args(Sysno::Link, [path, newpath, 0, 0, 0, 0])
    }

    fn sys_symlink(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        contents: u64,
        linkpath: u64,
    ) -> SysOutcome {
        let p = match ctx.read_path(linkpath) {
            Ok(p) => p,
            Err(e) => return SysOutcome::Done(Err(e)),
        };
        if self.policy.is_write_denied(&p) {
            if let Some(out) = self.gate("symlink", &p) {
                return out;
            }
        }
        ctx.down_args(Sysno::Symlink, [contents, linkpath, 0, 0, 0, 0])
    }

    fn sys_fork(&mut self, ctx: &mut SymCtx<'_, '_>) -> SysOutcome {
        if self.policy.deny_fork {
            self.violate("fork", b"", "EPROCLIM");
            return SysOutcome::Done(Err(Errno::EPROCLIM));
        }
        ctx.down_args(Sysno::Fork, [0; 6])
    }

    fn sys_vfork(&mut self, ctx: &mut SymCtx<'_, '_>) -> SysOutcome {
        if self.policy.deny_fork {
            self.violate("vfork", b"", "EPROCLIM");
            return SysOutcome::Done(Err(Errno::EPROCLIM));
        }
        ctx.down_args(Sysno::Vfork, [0; 6])
    }

    fn sys_execve(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        path: u64,
        argv: u64,
        envp: u64,
    ) -> SysOutcome {
        if self.policy.deny_exec {
            let p = ctx.read_path(path).unwrap_or_default();
            self.violate("execve", &p, "EPERM");
            return SysOutcome::Done(Err(Errno::EPERM));
        }
        self.gate_path_read(ctx, "execve", Sysno::Execve, path, [argv, envp])
    }

    fn sys_kill(&mut self, ctx: &mut SymCtx<'_, '_>, pid: u64, sig: u64) -> SysOutcome {
        if self.policy.deny_kill_others && pid as i64 != i64::from(ctx.pid()) {
            self.violate("kill", b"", "EPERM");
            return SysOutcome::Done(Err(Errno::EPERM));
        }
        ctx.down_args(Sysno::Kill, [pid, sig, 0, 0, 0, 0])
    }

    fn sys_socket(&mut self, ctx: &mut SymCtx<'_, '_>, d: u64, t: u64, p: u64) -> SysOutcome {
        if self.policy.deny_sockets {
            self.violate("socket", b"", "EACCES");
            return SysOutcome::Done(Err(Errno::EACCES));
        }
        ctx.down_args(Sysno::Socket, [d, t, p, 0, 0, 0])
    }

    fn sys_socketpair(&mut self, ctx: &mut SymCtx<'_, '_>, d: u64, t: u64, p: u64) -> SysOutcome {
        if self.policy.deny_sockets {
            self.violate("socketpair", b"", "EACCES");
            return SysOutcome::Done(Err(Errno::EACCES));
        }
        ctx.down_args(Sysno::Socketpair, [d, t, p, 0, 0, 0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{Kernel, KernelBuilder, RunOutcome};

    fn run_sandboxed(src: &str, policy: SandboxPolicy) -> (Kernel, SandboxHandle) {
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        k.write_file(b"/etc/secret", b"password").unwrap();
        k.write_file(b"/etc/public", b"hello").unwrap();
        let mut router = InterposedRouter::new();
        let (agent, handle) = SandboxAgent::new(policy);
        ia_interpose::spawn_with_agent(&mut k, agent, &[], &img, &[b"evil"], b"evil");
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        (k, handle)
    }

    #[test]
    fn hidden_paths_appear_absent() {
        let (_, handle) = run_sandboxed(
            r#"
            .data
            path: .asciz "/etc/secret"
            .text
            main:
                la r0, path
                li r1, 0
                li r2, 0
                sys open
                mov r0, r1      ; errno
                sys exit
            "#,
            SandboxPolicy {
                hidden: vec![b"/etc/secret".to_vec()],
                ..SandboxPolicy::default()
            },
        );
        let v = handle.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].call, "open");
        assert_eq!(v[0].result, "ENOENT");
    }

    #[test]
    fn readonly_denies_destruction_but_allows_reads() {
        let (mut k, handle) = run_sandboxed(
            r#"
            .data
            path: .asciz "/etc/public"
            buf:  .space 16
            .text
            main:
                la r0, path
                sys unlink          ; denied
                la r0, path
                li r1, 0
                li r2, 0
                sys open            ; allowed (read)
                mov r3, r0
                mov r0, r3
                la r1, buf
                li r2, 16
                sys read
                li r0, 0
                sys exit
            "#,
            SandboxPolicy {
                readonly: vec![b"/etc".to_vec()],
                ..SandboxPolicy::default()
            },
        );
        assert!(k.read_file(b"/etc/public").is_ok(), "file survived");
        assert_eq!(handle.violations().len(), 1);
        assert_eq!(handle.violations()[0].call, "unlink");
    }

    #[test]
    fn emulation_mode_pretends_success() {
        let (mut k, handle) = run_sandboxed(
            r#"
            .data
            path: .asciz "/etc/public"
            .text
            main:
                la r0, path
                sys unlink
                mov r0, r1          ; errno: 0 if "succeeded"
                sys exit
            "#,
            SandboxPolicy {
                readonly: vec![b"/etc".to_vec()],
                emulate_writes: true,
                ..SandboxPolicy::default()
            },
        );
        assert!(k.read_file(b"/etc/public").is_ok(), "nothing was deleted");
        assert_eq!(
            k.exit_status(1),
            Some(ia_abi::signal::wait_status_exited(0)),
            "client believes the unlink succeeded"
        );
        assert_eq!(handle.violations()[0].result, "emulated");
    }

    #[test]
    fn fork_denied_under_policy() {
        let (_, handle) = run_sandboxed(
            r#"
            main:
                sys fork
                mov r0, r1
                sys exit
            "#,
            SandboxPolicy {
                deny_fork: true,
                ..SandboxPolicy::default()
            },
        );
        assert_eq!(handle.violations()[0].call, "fork");
    }

    #[test]
    fn interactive_decider_rules_per_operation() {
        // The "human" allows unlinking /etc/tmpjunk but denies everything
        // else — per-operation interactive decisions.
        let src = r#"
            .data
            junk: .asciz "/etc/tmpjunk"
            conf: .asciz "/etc/keep.conf"
            .text
            main:
                la r0, junk
                sys unlink
                la r0, conf
                sys unlink
                mov r0, r1      ; errno of the second unlink
                sys exit
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        k.write_file(b"/etc/tmpjunk", b"x").unwrap();
        k.write_file(b"/etc/keep.conf", b"x").unwrap();
        let mut router = InterposedRouter::new();
        let (agent, handle) = SandboxAgent::with_decider(
            SandboxPolicy {
                readonly: vec![b"/etc".to_vec()],
                ..SandboxPolicy::default()
            },
            |call, path| {
                if call == "unlink" && path == b"/etc/tmpjunk" {
                    Ruling::Allow
                } else {
                    Ruling::Deny
                }
            },
        );
        ia_interpose::spawn_with_agent(&mut k, agent, &[], &img, &[b"m"], b"m");
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert!(k.read_file(b"/etc/tmpjunk").is_err(), "allowed unlink ran");
        assert!(
            k.read_file(b"/etc/keep.conf").is_ok(),
            "denied unlink did not"
        );
        assert_eq!(
            k.exit_status(1),
            Some(ia_abi::signal::wait_status_exited(Errno::EPERM.code() as u8))
        );
        let results: Vec<&str> = handle.violations().iter().map(|v| v.result).collect();
        let results: Vec<String> = results.iter().map(|s| s.to_string()).collect();
        assert_eq!(results, vec!["allowed".to_string(), "EPERM".to_string()]);
    }

    #[test]
    fn allowed_calls_blocks_everything_outside_the_set() {
        // The list permits write but not getpid: the getpid is refused with
        // EPERM before its method runs, and exit still works.
        let (k, handle) = run_sandboxed(
            r#"
            .data
            msg: .asciz "ok"
            .text
            main:
                li r0, 1
                la r1, msg
                li r2, 2
                sys write
                sys getpid
                mov r0, r1      ; errno of getpid
                sys exit
            "#,
            SandboxPolicy {
                allowed_calls: Some(InterestSet::of(&[Sysno::Write])),
                ..SandboxPolicy::default()
            },
        );
        assert_eq!(k.console.output_string(), "ok", "allowed call ran");
        assert_eq!(
            k.exit_status(1),
            Some(ia_abi::signal::wait_status_exited(Errno::EPERM.code() as u8)),
            "blocked call returned EPERM"
        );
        let v = handle.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].call, "getpid");
        assert_eq!(v[0].result, "EPERM");
    }

    #[test]
    fn from_footprint_derives_a_least_privilege_policy() {
        let img = ia_vm::assemble(
            r#"
            .data
            msg: .asciz "hi"
            .text
            main:
                li r0, 1
                la r1, msg
                li r2, 2
                sys write
                li r0, 0
                sys exit
            "#,
        )
        .unwrap();
        let (agent, _handle, fp) = SandboxAgent::from_footprint(&img);
        assert!(fp.exact);
        assert_eq!(fp.syscalls(), vec![Sysno::Exit, Sysno::Write]);
        let policy = &agent.inner.policy;
        assert!(policy.deny_fork && policy.deny_exec && policy.deny_sockets);
        let allowed = policy.allowed_calls.as_ref().unwrap();
        assert!(allowed.contains(Sysno::Write.number()));
        assert!(allowed.contains(Sysno::Exit.number()));
        assert!(!allowed.contains(Sysno::Open.number()));

        // And the binary runs unhindered under its own inferred policy.
        let mut k = KernelBuilder::new().build();
        let mut router = InterposedRouter::new();
        let (agent, handle, _) = SandboxAgent::from_footprint(&img);
        ia_interpose::spawn_with_agent(&mut k, agent, &[], &img, &[b"m"], b"m");
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(k.console.output_string(), "hi");
        assert!(handle.violations().is_empty(), "no false positives");
    }

    #[test]
    fn allow_list_policies_narrow_their_interests() {
        // Pure allow-list: in-set calls are NOT intercepted (they ride the
        // bypass/batching path), out-of-set calls are, and policed calls
        // stay visible even when allowed.
        let (agent, _) = SandboxAgent::new(SandboxPolicy {
            allowed_calls: Some(InterestSet::of(&[Sysno::Read, Sysno::Write, Sysno::Exit])),
            max_write_bytes: Some(100),
            deny_fork: true,
            ..SandboxPolicy::default()
        });
        let interests = agent.inner.interests();
        assert!(!interests.contains(Sysno::Read.number()), "read bypasses");
        assert!(
            interests.contains(Sysno::Write.number()),
            "quota needs write"
        );
        assert!(
            interests.contains(Sysno::Fork.number()),
            "deny_fork needs fork"
        );
        assert!(
            interests.contains(Sysno::Getpid.number()),
            "out-of-set seen"
        );

        // Path rules (and deciders) force full interception.
        let (agent, _) = SandboxAgent::new(SandboxPolicy {
            allowed_calls: Some(InterestSet::of(&[Sysno::Read])),
            hidden: vec![b"/etc".to_vec()],
            ..SandboxPolicy::default()
        });
        assert_eq!(agent.inner.interests(), InterestSet::ALL);
        let (agent, _) = SandboxAgent::with_decider(
            SandboxPolicy {
                allowed_calls: Some(InterestSet::of(&[Sysno::Read])),
                ..SandboxPolicy::default()
            },
            |_, _| Ruling::Deny,
        );
        assert_eq!(agent.inner.interests(), InterestSet::ALL);
        // No allow-list at all: unchanged, ALL.
        let (agent, _) = SandboxAgent::new(SandboxPolicy::default());
        assert_eq!(agent.inner.interests(), InterestSet::ALL);
    }

    #[test]
    fn write_quota_is_enforced() {
        let (k, handle) = run_sandboxed(
            r#"
            .data
            msg: .asciz "0123456789"
            .text
            main:
                li r12, 5
            loop:
                jz r12, done
                li r0, 1
                la r1, msg
                li r2, 10
                sys write
                addi r12, r12, -1
                jmp loop
            done:
                li r0, 0
                sys exit
            "#,
            SandboxPolicy {
                max_write_bytes: Some(25),
                ..SandboxPolicy::default()
            },
        );
        assert_eq!(handle.bytes_written(), 20, "two full writes fit under 25");
        assert_eq!(k.console.output_string().len(), 20);
        assert!(handle
            .violations()
            .iter()
            .any(|v| v.call == "write" && v.result == "EDQUOT"));
    }
}
