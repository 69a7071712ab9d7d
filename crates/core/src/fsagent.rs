//! The filesystem-agent base: composes the pathname, descriptor, open
//! object and directory layers into one [`SymbolicSyscall`] implementation.
//!
//! This is the shape the `union` and `dfs_trace` agents are built on in
//! the paper: "built using toolkit objects for pathnames, directories, and
//! descriptors, as well as the symbolic system call and lower levels of
//! the toolkit". An agent supplies a [`PathnameSet`]; the base routes
//!
//! * every pathname-using call through [`PathnameSet::getpn`] and the
//!   resulting [`Pathname`](crate::path::Pathname) object,
//! * every descriptor-using call through the descriptor table to the
//!   [`OpenObject`](crate::object::OpenObject) installed when the
//!   descriptor was opened (descriptors without an agent object pass
//!   straight down),
//! * `dup`/`dup2`/`fcntl(F_DUPFD)` so duplicated descriptors share one
//!   reference-counted object, and `close` so the last reference releases
//!   it.

use std::collections::HashMap;

use ia_abi::{FcntlCmd, Sysno};
use ia_interpose::InterestSet;
use ia_kernel::SysOutcome;

use crate::ctx::SymCtx;
use crate::object::{clone_descriptor_table, ObjRef};
use crate::path::{PathIntent, PathnameSet};
use crate::scratch::Scratch;
use crate::symbolic::{minimum_interests, SymbolicSyscall};

/// The composite filesystem agent.
pub struct FsAgent<P: PathnameSet> {
    /// The name-space policy object.
    pub set: P,
    /// Agent-side objects behind descriptors (only descriptors the policy
    /// chose to interpose on appear here).
    pub descriptors: HashMap<u64, ObjRef>,
    /// Staging memory in the client address space.
    pub scratch: Scratch,
    name: &'static str,
}

impl<P: PathnameSet> FsAgent<P> {
    /// Wraps a pathname-set policy.
    pub fn new(name: &'static str, set: P) -> FsAgent<P> {
        FsAgent {
            set,
            descriptors: HashMap::new(),
            scratch: Scratch::new(),
            name,
        }
    }

    fn getpn(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        addr: u64,
        intent: PathIntent,
    ) -> Result<Box<dyn crate::path::Pathname>, ia_abi::Errno> {
        self.scratch.reset();
        // Routing through the pathname layer costs: getpn, the pathname
        // object's virtual dispatch, and string staging.
        let cost = ctx.profile().path_layer_ns;
        ctx.charge(cost);
        let path = ctx.read_path(addr)?;
        Ok(self.set.getpn(ctx, &path, intent, &self.scratch))
    }

    fn obj(&self, ctx: &mut SymCtx<'_, '_>, fd: u64) -> Option<ObjRef> {
        // Descriptor-table lookup plus open-object dispatch.
        let cost = ctx.profile().desc_layer_ns;
        ctx.charge(cost);
        self.descriptors.get(&fd).cloned()
    }

    /// Routes a one-path call through the pathname layer.
    fn path_call(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        addr: u64,
        intent: PathIntent,
        f: impl FnOnce(&mut dyn crate::path::Pathname, &mut SymCtx<'_, '_>) -> SysOutcome,
    ) -> SysOutcome {
        match self.getpn(ctx, addr, intent) {
            Ok(mut pn) => f(pn.as_mut(), ctx),
            Err(e) => SysOutcome::Done(Err(e)),
        }
    }

    /// Routes a two-path call (link/rename) through two pathname objects.
    fn path2_call(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        a: u64,
        b: u64,
        intents: (PathIntent, PathIntent),
        f: impl FnOnce(
            &mut dyn crate::path::Pathname,
            &mut dyn crate::path::Pathname,
            &mut SymCtx<'_, '_>,
        ) -> SysOutcome,
    ) -> SysOutcome {
        let mut pa = match self.getpn(ctx, a, intents.0) {
            Ok(p) => p,
            Err(e) => return SysOutcome::Done(Err(e)),
        };
        // Second getpn must not reset scratch (the first string may be
        // staged already) — getpn resets, so resolve b via the set
        // directly.
        let pb = match ctx.read_path(b) {
            Ok(path) => self.set.getpn(ctx, &path, intents.1, &self.scratch),
            Err(e) => return SysOutcome::Done(Err(e)),
        };
        let mut pb = pb;
        f(pa.as_mut(), pb.as_mut(), ctx)
    }
}

impl<P: PathnameSet + Clone + 'static> Clone for FsAgent<P> {
    fn clone(&self) -> Self {
        FsAgent {
            set: self.set.clone(),
            descriptors: clone_descriptor_table(&self.descriptors),
            scratch: self.scratch.deep_clone(),
            name: self.name,
        }
    }
}

impl<P: PathnameSet + Clone + 'static> SymbolicSyscall for FsAgent<P> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn interests(&self) -> InterestSet {
        // Pathname calls, descriptor calls, descriptor lifecycle, and the
        // process lifecycle minimum.
        let mut s = minimum_interests();
        for &sys in ia_abi::sysno::ALL_SYSCALLS {
            if sys.uses_pathname() || sys.uses_descriptor() {
                s.add_sys(sys);
            }
        }
        for sys in [
            Sysno::Open,
            Sysno::Close,
            Sysno::Dup,
            Sysno::Dup2,
            Sysno::Fcntl,
        ] {
            s.add_sys(sys);
        }
        s
    }

    fn init(&mut self, ctx: &mut SymCtx<'_, '_>, args: &[Vec<u8>]) {
        self.set.init(ctx, args);
    }

    fn init_child(&mut self, ctx: &mut SymCtx<'_, '_>) {
        // The inherited scratch base stays valid: fork copied the address
        // space. Only the policy object gets a child hook.
        self.set.init_child(ctx);
    }

    fn signal_handler(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        sig: ia_abi::Signal,
    ) -> ia_interpose::SignalVerdict {
        self.set.signal_handler(ctx, sig)
    }

    // ---- pathname-routed calls -----------------------------------------

    fn sys_open(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        path: u64,
        flags: u64,
        mode: u64,
    ) -> SysOutcome {
        let intent = if flags & u64::from(ia_abi::OpenFlags::O_CREAT) != 0 {
            PathIntent::Create
        } else {
            PathIntent::Lookup
        };
        let mut pn = match self.getpn(ctx, path, intent) {
            Ok(p) => p,
            Err(e) => return SysOutcome::Done(Err(e)),
        };
        let (out, obj) = pn.open(ctx, flags, mode);
        if let (SysOutcome::Done(Ok([fd, _])), Some(obj)) = (&out, obj) {
            self.descriptors.insert(*fd, obj);
        }
        out
    }

    fn sys_stat(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, statbuf: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Lookup, |pn, ctx| {
            pn.stat(ctx, statbuf)
        })
    }

    fn sys_lstat(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, statbuf: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Lookup, |pn, ctx| {
            pn.lstat(ctx, statbuf)
        })
    }

    fn sys_access(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, mode: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Lookup, |pn, ctx| {
            pn.access(ctx, mode)
        })
    }

    fn sys_chmod(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, mode: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Lookup, |pn, ctx| pn.chmod(ctx, mode))
    }

    fn sys_chown(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, uid: u64, gid: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Lookup, |pn, ctx| {
            pn.chown(ctx, uid, gid)
        })
    }

    fn sys_unlink(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Remove, |pn, ctx| pn.unlink(ctx))
    }

    fn sys_readlink(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        path: u64,
        buf: u64,
        bufsize: u64,
    ) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Lookup, |pn, ctx| {
            pn.readlink(ctx, buf, bufsize)
        })
    }

    fn sys_truncate(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, length: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Lookup, |pn, ctx| {
            pn.truncate(ctx, length)
        })
    }

    fn sys_utimes(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, times: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Lookup, |pn, ctx| {
            pn.utimes(ctx, times)
        })
    }

    fn sys_chdir(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Lookup, |pn, ctx| pn.chdir(ctx))
    }

    fn sys_chroot(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Lookup, |pn, ctx| pn.chroot(ctx))
    }

    fn sys_mkdir(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, mode: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Create, |pn, ctx| pn.mkdir(ctx, mode))
    }

    fn sys_rmdir(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Remove, |pn, ctx| pn.rmdir(ctx))
    }

    fn sys_mknod(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        path: u64,
        mode: u64,
        dev: u64,
    ) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Create, |pn, ctx| {
            pn.mknod(ctx, mode, dev)
        })
    }

    fn sys_mkfifo(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, mode: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Create, |pn, ctx| {
            pn.mkfifo(ctx, mode)
        })
    }

    fn sys_execve(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        path: u64,
        argv: u64,
        envp: u64,
    ) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Lookup, |pn, ctx| {
            pn.execve(ctx, argv, envp)
        })
    }

    fn sys_link(&mut self, ctx: &mut SymCtx<'_, '_>, path: u64, newpath: u64) -> SysOutcome {
        self.path2_call(
            ctx,
            path,
            newpath,
            (PathIntent::Lookup, PathIntent::Create),
            |a, b, ctx| a.link(ctx, b),
        )
    }

    fn sys_rename(&mut self, ctx: &mut SymCtx<'_, '_>, from: u64, to: u64) -> SysOutcome {
        self.path2_call(
            ctx,
            from,
            to,
            (PathIntent::Remove, PathIntent::Create),
            |a, b, ctx| a.rename(ctx, b),
        )
    }

    fn sys_symlink(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        contents: u64,
        linkpath: u64,
    ) -> SysOutcome {
        self.path_call(ctx, linkpath, PathIntent::Create, |pn, ctx| {
            pn.symlink(ctx, contents)
        })
    }

    fn sys_bind(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, path: u64, _len: u64) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Create, |pn, ctx| {
            pn.sock_bind(ctx, fd)
        })
    }

    fn sys_connect(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        fd: u64,
        path: u64,
        _len: u64,
    ) -> SysOutcome {
        self.path_call(ctx, path, PathIntent::Lookup, |pn, ctx| {
            pn.sock_connect(ctx, fd)
        })
    }

    // ---- descriptor-routed calls -----------------------------------------

    fn sys_read(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, buf: u64, nbyte: u64) -> SysOutcome {
        match self.obj(ctx, fd) {
            Some(o) => o.lock().unwrap().read(ctx, fd, buf, nbyte),
            None => ctx.down_args(Sysno::Read, [fd, buf, nbyte, 0, 0, 0]),
        }
    }

    fn sys_write(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, buf: u64, nbyte: u64) -> SysOutcome {
        match self.obj(ctx, fd) {
            Some(o) => o.lock().unwrap().write(ctx, fd, buf, nbyte),
            None => ctx.down_args(Sysno::Write, [fd, buf, nbyte, 0, 0, 0]),
        }
    }

    fn sys_lseek(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        fd: u64,
        offset: u64,
        whence: u64,
    ) -> SysOutcome {
        match self.obj(ctx, fd) {
            Some(o) => o.lock().unwrap().lseek(ctx, fd, offset, whence),
            None => ctx.down_args(Sysno::Lseek, [fd, offset, whence, 0, 0, 0]),
        }
    }

    fn sys_fstat(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, statbuf: u64) -> SysOutcome {
        match self.obj(ctx, fd) {
            Some(o) => o.lock().unwrap().fstat(ctx, fd, statbuf),
            None => ctx.down_args(Sysno::Fstat, [fd, statbuf, 0, 0, 0, 0]),
        }
    }

    fn sys_ioctl(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        fd: u64,
        request: u64,
        argp: u64,
    ) -> SysOutcome {
        match self.obj(ctx, fd) {
            Some(o) => o.lock().unwrap().ioctl(ctx, fd, request, argp),
            None => ctx.down_args(Sysno::Ioctl, [fd, request, argp, 0, 0, 0]),
        }
    }

    fn sys_ftruncate(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, length: u64) -> SysOutcome {
        match self.obj(ctx, fd) {
            Some(o) => o.lock().unwrap().ftruncate(ctx, fd, length),
            None => ctx.down_args(Sysno::Ftruncate, [fd, length, 0, 0, 0, 0]),
        }
    }

    fn sys_fsync(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64) -> SysOutcome {
        match self.obj(ctx, fd) {
            Some(o) => o.lock().unwrap().fsync(ctx, fd),
            None => ctx.down_args(Sysno::Fsync, [fd, 0, 0, 0, 0, 0]),
        }
    }

    fn sys_fchmod(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, mode: u64) -> SysOutcome {
        match self.obj(ctx, fd) {
            Some(o) => o.lock().unwrap().fchmod(ctx, fd, mode),
            None => ctx.down_args(Sysno::Fchmod, [fd, mode, 0, 0, 0, 0]),
        }
    }

    fn sys_fchown(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, uid: u64, gid: u64) -> SysOutcome {
        match self.obj(ctx, fd) {
            Some(o) => o.lock().unwrap().fchown(ctx, fd, uid, gid),
            None => ctx.down_args(Sysno::Fchown, [fd, uid, gid, 0, 0, 0]),
        }
    }

    fn sys_flock(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, operation: u64) -> SysOutcome {
        match self.obj(ctx, fd) {
            Some(o) => o.lock().unwrap().flock(ctx, fd, operation),
            None => ctx.down_args(Sysno::Flock, [fd, operation, 0, 0, 0, 0]),
        }
    }

    fn sys_getdirentries(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        fd: u64,
        buf: u64,
        nbytes: u64,
        basep: u64,
    ) -> SysOutcome {
        match self.obj(ctx, fd) {
            Some(o) => o.lock().unwrap().getdirentries(ctx, fd, buf, nbytes, basep),
            None => ctx.down_args(Sysno::Getdirentries, [fd, buf, nbytes, basep, 0, 0]),
        }
    }

    // ---- descriptor lifecycle --------------------------------------------

    fn sys_close(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64) -> SysOutcome {
        match self.descriptors.remove(&fd) {
            Some(o) => {
                // Only the last reference performs the object's close
                // behaviour; earlier closes still close the descriptor.
                if std::sync::Arc::strong_count(&o) == 1 {
                    o.lock().unwrap().close(ctx, fd)
                } else {
                    ctx.down_args(Sysno::Close, [fd, 0, 0, 0, 0, 0])
                }
            }
            None => ctx.down_args(Sysno::Close, [fd, 0, 0, 0, 0, 0]),
        }
    }

    fn sys_dup(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64) -> SysOutcome {
        let out = ctx.down_args(Sysno::Dup, [fd, 0, 0, 0, 0, 0]);
        if let SysOutcome::Done(Ok([newfd, _])) = out {
            if let Some(o) = self.obj(ctx, fd) {
                self.descriptors.insert(newfd, o);
            }
        }
        out
    }

    fn sys_dup2(&mut self, ctx: &mut SymCtx<'_, '_>, from: u64, to: u64) -> SysOutcome {
        let out = ctx.down_args(Sysno::Dup2, [from, to, 0, 0, 0, 0]);
        if let SysOutcome::Done(Ok(_)) = out {
            self.descriptors.remove(&to);
            if let Some(o) = self.obj(ctx, from) {
                self.descriptors.insert(to, o);
            }
        }
        out
    }

    fn sys_fcntl(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, cmd: u64, arg: u64) -> SysOutcome {
        let out = ctx.down_args(Sysno::Fcntl, [fd, cmd, arg, 0, 0, 0]);
        if FcntlCmd::from_u32(cmd as u32) == Ok(FcntlCmd::DupFd) {
            if let SysOutcome::Done(Ok([newfd, _])) = out {
                if let Some(o) = self.obj(ctx, fd) {
                    self.descriptors.insert(newfd, o);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{DefaultPathname, Pathname};
    use crate::symbolic::Symbolic;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{KernelBuilder, RunOutcome};

    /// A pathname set that redirects every reference under `/virtual` to
    /// `/real` — a miniature "customizable filesystem view".
    #[derive(Debug, Clone, Default)]
    struct Redirect;

    impl PathnameSet for Redirect {
        fn set_name(&self) -> &'static str {
            "redirect"
        }
        fn getpn(
            &mut self,
            _ctx: &mut SymCtx<'_, '_>,
            path: &[u8],
            _intent: PathIntent,
            scratch: &Scratch,
        ) -> Box<dyn Pathname> {
            let rewritten = if let Some(rest) = path.strip_prefix(b"/virtual".as_ref()) {
                let mut p = b"/real".to_vec();
                p.extend_from_slice(rest);
                p
            } else {
                path.to_vec()
            };
            Box::new(DefaultPathname::new(rewritten, scratch.clone()))
        }
    }

    #[test]
    fn name_space_rewrite_is_transparent_to_the_client() {
        let src = r#"
            .data
            vpath: .asciz "/virtual/data.txt"
            buf:   .space 32
            .text
            main:
                la r0, vpath
                li r1, 0
                li r2, 0
                sys open
                mov r3, r0
                mov r0, r3
                la r1, buf
                li r2, 32
                sys read
                mov r2, r0
                li r0, 1
                la r1, buf
                sys write
                li r0, 0
                sys exit
        "#;
        let mut k = KernelBuilder::new().build();
        k.mkdir_p(b"/real").unwrap();
        k.write_file(b"/real/data.txt", b"relocated!").unwrap();
        let img = ia_vm::assemble(src).unwrap();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(
            &mut k,
            pid,
            Box::new(Symbolic::new(FsAgent::new("redirect", Redirect))),
        );
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(k.console.output_string(), "relocated!");
    }

    #[test]
    fn stat_and_unlink_follow_the_rewrite() {
        let src = r#"
            .data
            vpath: .asciz "/virtual/gone.txt"
            st:    .space 96
            .text
            main:
                la r0, vpath
                la r1, st
                sys stat
                mov r10, r0         ; stat result (0 ok)
                la r0, vpath
                sys unlink
                add r10, r10, r0    ; + unlink result
                ; both succeeded iff r10 == 0
                seq r0, r10, r11    ; r11 == 0
                xor r0, r0, r12     ; keep as bool
                sys exit
        "#;
        let mut k = KernelBuilder::new().build();
        k.mkdir_p(b"/real").unwrap();
        k.write_file(b"/real/gone.txt", b"x").unwrap();
        let img = ia_vm::assemble(src).unwrap();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(
            &mut k,
            pid,
            Box::new(Symbolic::new(FsAgent::new("redirect", Redirect))),
        );
        k.run_with(&mut router);
        // The real file is gone even though the client named /virtual.
        assert!(k.read_file(b"/real/gone.txt").is_err());
        let _ = pid;
    }
}
