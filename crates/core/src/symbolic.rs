//! Layer 1 — the *symbolic system call layer*.
//!
//! "The first layer of the toolkit intended for direct use by most
//! interposition agents presents the system interface as a set of system
//! call methods on a system interface object" (§2.3).
//!
//! [`SymbolicSyscall`] has one method per system call, each with named
//! arguments and a default body that passes the call to the next instance
//! of the interface — C++ `virtual` methods with inherited defaults become
//! Rust trait methods with default bodies. An agent overrides exactly the
//! calls it changes: the paper's `timex` overrides one method.
//!
//! [`Symbolic`] is the toolkit-supplied adapter (the paper's
//! `bsd_numeric_syscall`) that decodes raw numeric traps and invokes the
//! symbolic methods.

use ia_abi::{RawArgs, Signal, Sysno};
use ia_interpose::{Agent, InterestSet, SignalVerdict, SysCtx};
use ia_kernel::SysOutcome;

use crate::ctx::SymCtx;

/// The "bare minimum" interception set an agent always carries so its
/// bookkeeping survives process lifecycle events — what the paper means by
/// `timex` interposing "on only the bare minimum plus gettimeofday".
#[must_use]
pub fn minimum_interests() -> InterestSet {
    InterestSet::of(&[
        Sysno::Fork,
        Sysno::Vfork,
        Sysno::Execve,
        Sysno::Exit,
        Sysno::Wait4,
    ])
}

macro_rules! symbolic_calls {
    ($( $(#[$doc:meta])* ($sys:ident, $method:ident, ( $($arg:ident : $idx:tt),* )); )+) => {
        /// One typed method per system call, with pass-through defaults.
        ///
        /// Pointer-valued arguments (`buf`, `path`, `statbuf`, ...) are
        /// addresses in the client's address space, exactly as the paper's
        /// C++ methods received `char *` pointers into the shared address
        /// space; read or rewrite them through the [`SymCtx`] accessors.
        #[allow(unused_variables)]
        pub trait SymbolicSyscall: Send {
            /// Diagnostic agent name.
            fn name(&self) -> &'static str {
                "symbolic-agent"
            }

            /// Which traps to intercept. Defaults to everything; narrow
            /// agents (like `timex`) override this for pay-per-use cost.
            fn interests(&self) -> InterestSet {
                InterestSet::ALL
            }

            /// One-time initialization (agent command-line arguments).
            fn init(&mut self, ctx: &mut SymCtx<'_, '_>, args: &[Vec<u8>]) {}

            /// Runs on the child's copy after the client forks.
            fn init_child(&mut self, ctx: &mut SymCtx<'_, '_>) {}

            /// Incoming signal on its way to the application.
            fn signal_handler(&mut self, ctx: &mut SymCtx<'_, '_>, sig: Signal) -> SignalVerdict {
                SignalVerdict::Deliver
            }

            /// Pre-dispatch veto, consulted for every intercepted trap
            /// (known or unknown) before its symbolic method runs. Return
            /// `Some(outcome)` to short-circuit the call — the per-call
            /// method is never invoked. The default never intervenes.
            ///
            /// This is the hook policy agents use to enforce a syscall
            /// allow-list (e.g. one inferred by `ia-analyze`) uniformly,
            /// without overriding all ~80 methods.
            fn intercept(
                &mut self,
                ctx: &mut SymCtx<'_, '_>,
                nr: u32,
                args: RawArgs,
            ) -> Option<SysOutcome> {
                None
            }

            /// A trap number outside the known table.
            fn unknown_syscall(
                &mut self,
                ctx: &mut SymCtx<'_, '_>,
                nr: u32,
                args: RawArgs,
            ) -> SysOutcome {
                ctx.down_raw(nr, args)
            }

            $(
                $(#[$doc])*
                fn $method(&mut self, ctx: &mut SymCtx<'_, '_> $(, $arg: u64)*) -> SysOutcome {
                    #[allow(unused_mut)]
                    let mut a: RawArgs = [0; 6];
                    $( a[$idx] = $arg; )*
                    ctx.down_args(Sysno::$sys, a)
                }
            )+
        }

        fn dispatch_symbolic<S: SymbolicSyscall>(
            s: &mut S,
            ctx: &mut SymCtx<'_, '_>,
            sys: Sysno,
            args: RawArgs,
        ) -> SysOutcome {
            match sys {
                $( Sysno::$sys => s.$method(ctx $(, args[$idx])*), )+
            }
        }
    };
}

symbolic_calls! {
    /// `_exit(status)`
    (Exit, sys_exit, (status: 0));
    /// `fork()`
    (Fork, sys_fork, ());
    /// `read(fd, buf, nbyte)`
    (Read, sys_read, (fd: 0, buf: 1, nbyte: 2));
    /// `write(fd, buf, nbyte)`
    (Write, sys_write, (fd: 0, buf: 1, nbyte: 2));
    /// `open(path, flags, mode)`
    (Open, sys_open, (path: 0, flags: 1, mode: 2));
    /// `close(fd)`
    (Close, sys_close, (fd: 0));
    /// `wait4(pid, status, options, rusage)`
    (Wait4, sys_wait4, (pid: 0, status: 1, options: 2, rusage: 3));
    /// `link(path, newpath)`
    (Link, sys_link, (path: 0, newpath: 1));
    /// `unlink(path)`
    (Unlink, sys_unlink, (path: 0));
    /// `chdir(path)`
    (Chdir, sys_chdir, (path: 0));
    /// `fchdir(fd)`
    (Fchdir, sys_fchdir, (fd: 0));
    /// `mknod(path, mode, dev)`
    (Mknod, sys_mknod, (path: 0, mode: 1, dev: 2));
    /// `chmod(path, mode)`
    (Chmod, sys_chmod, (path: 0, mode: 1));
    /// `chown(path, uid, gid)`
    (Chown, sys_chown, (path: 0, uid: 1, gid: 2));
    /// `sbrk(incr)`
    (Sbrk, sys_sbrk, (incr: 0));
    /// `lseek(fd, offset, whence)`
    (Lseek, sys_lseek, (fd: 0, offset: 1, whence: 2));
    /// `getpid()`
    (Getpid, sys_getpid, ());
    /// `setuid(uid)`
    (Setuid, sys_setuid, (uid: 0));
    /// `getuid()`
    (Getuid, sys_getuid, ());
    /// `geteuid()`
    (Geteuid, sys_geteuid, ());
    /// `accept(fd, addr, addrlen)`
    (Accept, sys_accept, (fd: 0, addr: 1, addrlen: 2));
    /// `access(path, mode)`
    (Access, sys_access, (path: 0, mode: 1));
    /// `sync()`
    (Sync, sys_sync, ());
    /// `kill(pid, sig)`
    (Kill, sys_kill, (pid: 0, sig: 1));
    /// `stat(path, statbuf)`
    (Stat, sys_stat, (path: 0, statbuf: 1));
    /// `getppid()`
    (Getppid, sys_getppid, ());
    /// `lstat(path, statbuf)`
    (Lstat, sys_lstat, (path: 0, statbuf: 1));
    /// `dup(fd)`
    (Dup, sys_dup, (fd: 0));
    /// `pipe()`
    (Pipe, sys_pipe, ());
    /// `getegid()`
    (Getegid, sys_getegid, ());
    /// `sigaction(sig, act, oact)`
    (Sigaction, sys_sigaction, (sig: 0, act: 1, oact: 2));
    /// `getgid()`
    (Getgid, sys_getgid, ());
    /// `sigprocmask(how, mask)`
    (Sigprocmask, sys_sigprocmask, (how: 0, mask: 1));
    /// `sigpending()`
    (Sigpending, sys_sigpending, ());
    /// `ioctl(fd, request, argp)`
    (Ioctl, sys_ioctl, (fd: 0, request: 1, argp: 2));
    /// `symlink(contents, linkpath)`
    (Symlink, sys_symlink, (contents: 0, linkpath: 1));
    /// `readlink(path, buf, bufsize)`
    (Readlink, sys_readlink, (path: 0, buf: 1, bufsize: 2));
    /// `execve(path, argv, envp)`
    (Execve, sys_execve, (path: 0, argv: 1, envp: 2));
    /// `umask(mask)`
    (Umask, sys_umask, (mask: 0));
    /// `chroot(path)`
    (Chroot, sys_chroot, (path: 0));
    /// `fstat(fd, statbuf)`
    (Fstat, sys_fstat, (fd: 0, statbuf: 1));
    /// `vfork()`
    (Vfork, sys_vfork, ());
    /// `getpgrp()`
    (Getpgrp, sys_getpgrp, ());
    /// `setpgid(pid, pgrp)`
    (Setpgid, sys_setpgid, (pid: 0, pgrp: 1));
    /// `setitimer(which, value, ovalue)`
    (Setitimer, sys_setitimer, (which: 0, value: 1, ovalue: 2));
    /// `getitimer(which, value)`
    (Getitimer, sys_getitimer, (which: 0, value: 1));
    /// `getdtablesize()`
    (Getdtablesize, sys_getdtablesize, ());
    /// `dup2(from, to)`
    (Dup2, sys_dup2, (from: 0, to: 1));
    /// `fcntl(fd, cmd, arg)`
    (Fcntl, sys_fcntl, (fd: 0, cmd: 1, arg: 2));
    /// `select(nfds, readfds, writefds, exceptfds, timeout)`
    (Select, sys_select, (nfds: 0, readfds: 1, writefds: 2, exceptfds: 3, timeout: 4));
    /// `fsync(fd)`
    (Fsync, sys_fsync, (fd: 0));
    /// `setpriority(which, who, prio)`
    (Setpriority, sys_setpriority, (which: 0, who: 1, prio: 2));
    /// `socket(domain, ty, protocol)`
    (Socket, sys_socket, (domain: 0, ty: 1, protocol: 2));
    /// `connect(fd, path, len)`
    (Connect, sys_connect, (fd: 0, path: 1, len: 2));
    /// `getpriority(which, who)`
    (Getpriority, sys_getpriority, (which: 0, who: 1));
    /// `sigreturn(ctx)`
    (Sigreturn, sys_sigreturn, (sigctx: 0));
    /// `bind(fd, path, len)`
    (Bind, sys_bind, (fd: 0, path: 1, len: 2));
    /// `listen(fd, backlog)`
    (Listen, sys_listen, (fd: 0, backlog: 1));
    /// `sigsuspend(mask)`
    (Sigsuspend, sys_sigsuspend, (mask: 0));
    /// `gettimeofday(tp, tzp)`
    (Gettimeofday, sys_gettimeofday, (tp: 0, tzp: 1));
    /// `getrusage(who, rusage)`
    (Getrusage, sys_getrusage, (who: 0, rusage: 1));
    /// `readv(fd, iov, iovcnt)`
    (Readv, sys_readv, (fd: 0, iov: 1, iovcnt: 2));
    /// `writev(fd, iov, iovcnt)`
    (Writev, sys_writev, (fd: 0, iov: 1, iovcnt: 2));
    /// `settimeofday(tp, tzp)`
    (Settimeofday, sys_settimeofday, (tp: 0, tzp: 1));
    /// `fchown(fd, uid, gid)`
    (Fchown, sys_fchown, (fd: 0, uid: 1, gid: 2));
    /// `fchmod(fd, mode)`
    (Fchmod, sys_fchmod, (fd: 0, mode: 1));
    /// `setreuid(ruid, euid)`
    (Setreuid, sys_setreuid, (ruid: 0, euid: 1));
    /// `setregid(rgid, egid)`
    (Setregid, sys_setregid, (rgid: 0, egid: 1));
    /// `rename(from, to)`
    (Rename, sys_rename, (from: 0, to: 1));
    /// `truncate(path, length)`
    (Truncate, sys_truncate, (path: 0, length: 1));
    /// `ftruncate(fd, length)`
    (Ftruncate, sys_ftruncate, (fd: 0, length: 1));
    /// `flock(fd, operation)`
    (Flock, sys_flock, (fd: 0, operation: 1));
    /// `mkfifo(path, mode)`
    (Mkfifo, sys_mkfifo, (path: 0, mode: 1));
    /// `socketpair(domain, ty, protocol)`
    (Socketpair, sys_socketpair, (domain: 0, ty: 1, protocol: 2));
    /// `mkdir(path, mode)`
    (Mkdir, sys_mkdir, (path: 0, mode: 1));
    /// `rmdir(path)`
    (Rmdir, sys_rmdir, (path: 0));
    /// `utimes(path, times)`
    (Utimes, sys_utimes, (path: 0, times: 1));
    /// `adjtime(delta, olddelta)`
    (Adjtime, sys_adjtime, (delta: 0, olddelta: 1));
    /// `setsid()`
    (Setsid, sys_setsid, ());
    /// `setgid(gid)`
    (Setgid, sys_setgid, (gid: 0));
    /// `getdirentries(fd, buf, nbytes, basep)`
    (Getdirentries, sys_getdirentries, (fd: 0, buf: 1, nbytes: 2, basep: 3));
}

/// The toolkit-supplied numeric→symbolic adapter: implements the raw
/// [`Agent`] contract by decoding each trap and invoking the corresponding
/// [`SymbolicSyscall`] method.
#[derive(Debug, Clone)]
pub struct Symbolic<S> {
    /// The wrapped symbolic implementation.
    pub inner: S,
}

impl<S> Symbolic<S> {
    /// Wraps a symbolic implementation.
    pub fn new(inner: S) -> Symbolic<S> {
        Symbolic { inner }
    }
}

impl<S: SymbolicSyscall + Clone + 'static> Agent for Symbolic<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn interests(&self) -> InterestSet {
        self.inner.interests()
    }

    fn init(&mut self, ctx: &mut SysCtx<'_>, args: &[Vec<u8>]) {
        let mut sym = SymCtx::new(ctx);
        self.inner.init(&mut sym, args);
    }

    fn init_child(&mut self, ctx: &mut SysCtx<'_>) {
        let mut sym = SymCtx::new(ctx);
        self.inner.init_child(&mut sym);
    }

    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        let mut sym = SymCtx::new(ctx);
        // Decoding the numeric trap into a typed method call and encoding
        // the results back is the symbolic layer's measured per-call cost.
        let dispatch_cost = sym.profile().symbolic_dispatch_ns;
        sym.charge(dispatch_cost);
        if let Some(outcome) = self.inner.intercept(&mut sym, nr, args) {
            return outcome;
        }
        match Sysno::from_u32(nr) {
            Some(sys) => dispatch_symbolic(&mut self.inner, &mut sym, sys, args),
            None => self.inner.unknown_syscall(&mut sym, nr, args),
        }
    }

    fn signal_incoming(&mut self, ctx: &mut SysCtx<'_>, sig: Signal) -> SignalVerdict {
        let mut sym = SymCtx::new(ctx);
        self.inner.signal_handler(&mut sym, sig)
    }

    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{KernelBuilder, RunOutcome};

    /// The null symbolic agent: every call takes its default path. Used in
    /// the paper as `time_symbolic` to measure minimum toolkit overhead
    /// (Table 3-5's "with agent" column).
    #[derive(Debug, Clone, Default)]
    struct Null;

    impl SymbolicSyscall for Null {
        fn name(&self) -> &'static str {
            "null-symbolic"
        }
    }

    #[test]
    fn null_symbolic_agent_is_transparent() {
        let src = r#"
            .data
            msg: .asciz "same"
            .text
            main:
                li r0, 1
                la r1, msg
                li r2, 4
                sys write
                sys getpid
                li r0, 0
                sys exit
        "#;
        let img = ia_vm::assemble(src).unwrap();

        let mut plain = KernelBuilder::new().build();
        plain.spawn_image(&img, &[b"t"], b"t");
        plain.run_to_completion();

        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, Box::new(Symbolic::new(Null)));
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);

        assert_eq!(plain.console.output_string(), k.console.output_string());
        assert_eq!(router.stats.intercepted, 3, "write, getpid, exit");
    }

    /// Override a single method, inheriting every other behaviour — the
    /// timex shape from the paper, §3.3.1.
    #[derive(Debug, Clone)]
    struct PidPlus(u64);

    impl SymbolicSyscall for PidPlus {
        fn interests(&self) -> InterestSet {
            InterestSet::of(&[Sysno::Getpid])
        }
        fn sys_getpid(&mut self, ctx: &mut SymCtx<'_, '_>) -> SysOutcome {
            match ctx.down_args(Sysno::Getpid, [0; 6]) {
                SysOutcome::Done(Ok([pid, x])) => SysOutcome::Done(Ok([pid + self.0, x])),
                other => other,
            }
        }
    }

    #[test]
    fn single_method_override_changes_one_call_only() {
        // exit(getpid() + 40): with the agent the status is pid+40.
        let src = "main: sys getpid\n sys exit\n";
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, Box::new(Symbolic::new(PidPlus(40))));
        k.run_with(&mut router);
        let status = k.exit_status(pid).unwrap();
        assert_eq!(status >> 8, u64::from(pid) as u32 + 40);
        // exit was NOT intercepted (narrow interests): only getpid was.
        assert_eq!(router.stats.intercepted, 1);
        assert!(router.stats.passthrough >= 1);
    }

    #[test]
    fn minimum_interests_cover_lifecycle() {
        let m = minimum_interests();
        assert!(m.contains(Sysno::Fork.number()));
        assert!(m.contains(Sysno::Execve.number()));
        assert!(m.contains(Sysno::Exit.number()));
        assert!(!m.contains(Sysno::Read.number()));
    }
}
