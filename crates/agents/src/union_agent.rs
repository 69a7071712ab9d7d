//! The `union` agent (§3.3.3) — union directories.
//!
//! "The union agent implements union directories, which provide the
//! ability to view the contents of lists of actual directories as if their
//! contents were merged into single union directories."
//!
//! Exactly as in the paper, the agent is three small pieces on top of the
//! toolkit:
//!
//! 1. a derived pathname object ([`UnionSet::getpn`]) that maps names
//!    under a union mount onto the member directory that holds them,
//! 2. a derived directory object ([`UnionDirectory`]) whose
//!    `next_direntry()` iterates the members' contents in turn (using the
//!    underlying `next_direntry` machinery) while suppressing duplicates,
//! 3. an `init` routine that accepts mount specifications
//!    (`/virtual=/member1:/member2`) from the agent command line.
//!
//! Everything else — all 18 pathname calls, all 20 descriptor calls — is
//! inherited from the toolkit.

use ia_abi::{DirEntry, Errno, FileMode, OpenFlags, Stat, Sysno};
use ia_kernel::SysOutcome;
use ia_toolkit::{
    obj_ref, DefaultDirectory, DefaultPathname, DirObject, Directory, FsAgent, ObjRef, PathIntent,
    Pathname, PathnameSet, Scratch, SymCtx, Symbolic,
};

/// One union mount: a virtual directory backed by an ordered member list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionMount {
    /// The virtual directory name (absolute).
    pub virtual_dir: Vec<u8>,
    /// Member directories, first member has priority.
    pub members: Vec<Vec<u8>>,
}

impl UnionMount {
    /// Parses `"/virtual=/a:/b:/c"`.
    #[must_use]
    pub fn parse(spec: &[u8]) -> Option<UnionMount> {
        let eq = spec.iter().position(|&c| c == b'=')?;
        let virtual_dir = spec[..eq].to_vec();
        let members: Vec<Vec<u8>> = spec[eq + 1..]
            .split(|&c| c == b':')
            .filter(|m| !m.is_empty())
            .map(<[u8]>::to_vec)
            .collect();
        if virtual_dir.is_empty() || members.is_empty() {
            return None;
        }
        Some(UnionMount {
            virtual_dir,
            members,
        })
    }

    /// If `path` lies under this mount, the suffix below the mount point
    /// (empty for the mount point itself).
    #[must_use]
    pub fn suffix_of<'p>(&self, path: &'p [u8]) -> Option<&'p [u8]> {
        let rest = path.strip_prefix(self.virtual_dir.as_slice())?;
        match rest.first() {
            None => Some(rest),
            Some(b'/') => Some(&rest[1..]),
            Some(_) => None,
        }
    }
}

/// The union pathname-set: holds the mount table.
#[derive(Debug, Clone, Default)]
pub struct UnionSet {
    /// Mount table, longest virtual prefix first.
    pub mounts: Vec<UnionMount>,
}

impl UnionSet {
    fn add_mount(&mut self, m: UnionMount) {
        self.mounts.push(m);
        self.mounts
            .sort_by_key(|m| std::cmp::Reverse(m.virtual_dir.len()));
    }

    /// True if `path` (staged at a scratch address) names an existing
    /// object; also reports whether it is a directory. Each member is
    /// resolved *and* permission-checked, as the paper's union pathname
    /// lookup does when deciding which member serves a reference.
    fn probe(ctx: &mut SymCtx<'_, '_>, scratch: &Scratch, path: &[u8]) -> Option<(bool, Stat)> {
        let addr = scratch.write_cstr(ctx, path).ok()?;
        let stbuf = scratch
            .reserve(ctx, <Stat as ia_abi::wire::Wire>::WIRE_SIZE)
            .ok()?;
        match ctx.down_args(Sysno::Lstat, [addr, stbuf, 0, 0, 0, 0]) {
            SysOutcome::Done(Ok(_)) => {
                let st: Stat = ctx.read_struct(stbuf).ok()?;
                let is_dir = st.mode & FileMode::S_IFMT == FileMode::S_IFDIR;
                // Readability decides whether this member may serve.
                let readable = matches!(
                    ctx.down_args(Sysno::Access, [addr, 4, 0, 0, 0, 0]),
                    SysOutcome::Done(Ok(_))
                );
                if !readable {
                    return None;
                }
                Some((is_dir, st))
            }
            _ => None,
        }
    }
}

impl PathnameSet for UnionSet {
    fn set_name(&self) -> &'static str {
        "union"
    }

    fn init(&mut self, _ctx: &mut SymCtx<'_, '_>, args: &[Vec<u8>]) {
        for a in args {
            if let Some(m) = UnionMount::parse(a) {
                self.add_mount(m);
            }
        }
    }

    fn getpn(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        path: &[u8],
        intent: PathIntent,
        scratch: &Scratch,
    ) -> Box<dyn Pathname> {
        let Some(mount) = self
            .mounts
            .iter()
            .find(|m| m.suffix_of(path).is_some())
            .cloned()
        else {
            return Box::new(DefaultPathname::new(path, scratch.clone()));
        };
        let suffix = mount.suffix_of(path).expect("matched above").to_vec();

        // Candidate paths, in member priority order.
        let candidates: Vec<Vec<u8>> = mount
            .members
            .iter()
            .map(|m| {
                let mut p = m.clone();
                if !suffix.is_empty() {
                    p.push(b'/');
                    p.extend_from_slice(&suffix);
                }
                p
            })
            .collect();

        // Which members actually hold the object, and is it a directory?
        let mut existing: Vec<(Vec<u8>, bool)> = Vec::new();
        for c in &candidates {
            if let Some((is_dir, _)) = Self::probe(ctx, scratch, c) {
                existing.push((c.clone(), is_dir));
            }
        }

        let all_dirs = !existing.is_empty() && existing.iter().all(|(_, d)| *d);
        if all_dirs && !existing.is_empty() && (suffix.is_empty() || existing.len() > 1) {
            // The union mount point, or a subdirectory present in several
            // members: opening it must merge.
            let dirs: Vec<Vec<u8>> = existing.iter().map(|(p, _)| p.clone()).collect();
            return Box::new(UnionDirPathname {
                primary: dirs[0].clone(),
                members: dirs,
                scratch: scratch.clone(),
            });
        }

        let chosen = match intent {
            PathIntent::Create => existing
                .first()
                .map_or_else(|| candidates[0].clone(), |(p, _)| p.clone()),
            PathIntent::Lookup | PathIntent::Remove => existing
                .first()
                .map_or_else(|| candidates[0].clone(), |(p, _)| p.clone()),
        };
        Box::new(DefaultPathname::new(chosen, scratch.clone()))
    }
}

/// Pathname object for a union *directory*: opens every member and merges.
struct UnionDirPathname {
    primary: Vec<u8>,
    members: Vec<Vec<u8>>,
    scratch: Scratch,
}

impl Pathname for UnionDirPathname {
    fn path(&self) -> &[u8] {
        &self.primary
    }

    fn scratch(&self) -> &Scratch {
        &self.scratch
    }

    fn clone_pathname(&self) -> Box<dyn Pathname> {
        Box::new(UnionDirPathname {
            primary: self.primary.clone(),
            members: self.members.clone(),
            scratch: self.scratch.deep_clone(),
        })
    }

    fn open(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        flags: u64,
        _mode: u64,
    ) -> (SysOutcome, Option<ObjRef>) {
        if OpenFlags::new(flags as u32).writable() {
            return (SysOutcome::Done(Err(Errno::EISDIR)), None);
        }
        // Open every member directory; the first fd is the client's.
        let mut fds = Vec::new();
        for m in &self.members {
            let addr = match self.scratch.write_cstr(ctx, m) {
                Ok(a) => a,
                Err(e) => return (SysOutcome::Done(Err(e)), None),
            };
            match ctx.down_args(Sysno::Open, [addr, 0, 0, 0, 0, 0]) {
                SysOutcome::Done(Ok([fd, _])) => fds.push(fd),
                // A member may vanish between probe and open: skip it.
                SysOutcome::Done(Err(_)) => {}
                other => return (other, None),
            }
        }
        if fds.is_empty() {
            return (SysOutcome::Done(Err(Errno::ENOENT)), None);
        }
        let primary = fds[0];
        let dir = UnionDirectory::new(&fds, self.scratch.clone());
        let obj = obj_ref(UnionDirObject {
            inner: DirObject::new(Box::new(dir)),
            member_fds: fds,
        });
        (SysOutcome::Done(Ok([primary, 0])), Some(obj))
    }
}

/// Logical merged directory: iterates each member's entries in priority
/// order, suppressing duplicate names, via the toolkit's `next_direntry`
/// machinery.
pub struct UnionDirectory {
    members: Vec<DefaultDirectory>,
    current: usize,
    seen: std::collections::HashSet<Vec<u8>>,
}

impl UnionDirectory {
    /// Builds the merged view over already-open member directory fds.
    #[must_use]
    pub fn new(fds: &[u64], scratch: Scratch) -> UnionDirectory {
        UnionDirectory {
            members: fds
                .iter()
                .map(|&fd| DefaultDirectory::new(fd, scratch.clone()))
                .collect(),
            current: 0,
            seen: std::collections::HashSet::new(),
        }
    }
}

impl Directory for UnionDirectory {
    fn dir_name(&self) -> &'static str {
        "union-directory"
    }

    fn next_direntry(&mut self, ctx: &mut SymCtx<'_, '_>) -> Result<Option<DirEntry>, Errno> {
        // "And yes, that iteration itself is accomplished via the
        // underlying next_direntry implementations."
        while self.current < self.members.len() {
            match self.members[self.current].next_direntry(ctx)? {
                Some(e) => {
                    let dup = !self.seen.insert(e.name.clone());
                    let dot = e.name == b"." || e.name == b"..";
                    if dup || (dot && self.current > 0) {
                        continue;
                    }
                    return Ok(Some(e));
                }
                None => self.current += 1,
            }
        }
        Ok(None)
    }

    fn rewind(&mut self, ctx: &mut SymCtx<'_, '_>) -> Result<(), Errno> {
        for m in &mut self.members {
            m.rewind(ctx)?;
        }
        self.current = 0;
        self.seen.clear();
        Ok(())
    }

    fn clone_dir(&self) -> Box<dyn Directory> {
        Box::new(UnionDirectory {
            members: self
                .members
                .iter()
                // A cloned member iterator restarts its buffering; the
                // kernel-side offset is shared via the inherited
                // descriptor anyway.
                .map(|m| DefaultDirectory::new(m.fd, Scratch::new()))
                .collect(),
            current: self.current,
            seen: self.seen.clone(),
        })
    }
}

/// Open object for a union directory: the merged iterator plus cleanup of
/// the hidden member descriptors on final close.
struct UnionDirObject {
    inner: DirObject,
    member_fds: Vec<u64>,
}

impl ia_toolkit::OpenObject for UnionDirObject {
    fn obj_name(&self) -> &'static str {
        "union-dir-object"
    }

    fn getdirentries(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        fd: u64,
        buf: u64,
        nbytes: u64,
        basep: u64,
    ) -> SysOutcome {
        self.inner.getdirentries(ctx, fd, buf, nbytes, basep)
    }

    fn lseek(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, offset: u64, whence: u64) -> SysOutcome {
        self.inner.lseek(ctx, fd, offset, whence)
    }

    fn close(&mut self, ctx: &mut SymCtx<'_, '_>, _fd: u64) -> SysOutcome {
        let mut out = SysOutcome::Done(Ok([0, 0]));
        for &fd in &self.member_fds {
            let r = ctx.down_args(Sysno::Close, [fd, 0, 0, 0, 0, 0]);
            if matches!(r, SysOutcome::Done(Err(_))) {
                out = r;
            }
        }
        out
    }

    fn clone_object(&self) -> Box<dyn ia_toolkit::OpenObject> {
        Box::new(UnionDirObject {
            inner: self.inner.clone_dirobject(),
            member_fds: self.member_fds.clone(),
        })
    }
}

/// The ready-to-load union agent.
pub struct UnionAgent;

impl UnionAgent {
    /// Builds the agent from mount specs (`/virtual=/a:/b`).
    #[must_use]
    pub fn boxed(specs: &[&[u8]]) -> Box<Symbolic<FsAgent<UnionSet>>> {
        let mut set = UnionSet::default();
        for s in specs {
            if let Some(m) = UnionMount::parse(s) {
                set.add_mount(m);
            }
        }
        Box::new(Symbolic::new(FsAgent::new("union", set)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{Kernel, KernelBuilder, RunOutcome};

    /// Builds the two-member fixture from the paper's motivation: distinct
    /// source and object directories appearing as one.
    fn fixture() -> Kernel {
        let mut k = KernelBuilder::new().build();
        k.mkdir_p(b"/src").unwrap();
        k.mkdir_p(b"/obj").unwrap();
        k.write_file(b"/src/main.c", b"int main(){}").unwrap();
        k.write_file(b"/src/util.c", b"void util(){}").unwrap();
        k.write_file(b"/obj/main.o", b"OBJ-MAIN").unwrap();
        // Present in both members: the first member must win.
        k.write_file(b"/src/Makefile", b"from-src").unwrap();
        k.write_file(b"/obj/Makefile", b"from-obj").unwrap();
        k
    }

    fn with_union(k: &mut Kernel, src: &str) -> (RunOutcome, InterposedRouter) {
        let img = ia_vm::assemble(src).unwrap();
        let pid = k.spawn_image(&img, &[b"c"], b"c");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(k, pid, UnionAgent::boxed(&[b"/u=/src:/obj"]));
        let out = k.run_with(&mut router);
        (out, router)
    }

    #[test]
    fn mount_spec_parsing() {
        let m = UnionMount::parse(b"/u=/a:/b:/c").unwrap();
        assert_eq!(m.virtual_dir, b"/u");
        assert_eq!(m.members.len(), 3);
        assert!(UnionMount::parse(b"nonsense").is_none());
        assert!(UnionMount::parse(b"/u=").is_none());
        assert_eq!(m.suffix_of(b"/u").unwrap(), b"");
        assert_eq!(m.suffix_of(b"/u/x/y").unwrap(), b"x/y");
        assert!(m.suffix_of(b"/usr").is_none());
        assert!(m.suffix_of(b"/v/x").is_none());
    }

    #[test]
    fn files_resolve_through_members() {
        let mut k = fixture();
        let (out, _) = with_union(
            &mut k,
            r#"
            .data
            p1: .asciz "/u/main.c"
            p2: .asciz "/u/main.o"
            buf: .space 32
            .text
            main:
                la r0, p1
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
                ; and a file that only exists in the second member
                la r0, p2
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
            "#,
        );
        assert_eq!(out, RunOutcome::AllExited);
        assert_eq!(k.console.output_string(), "int main(){}OBJ-MAIN");
    }

    #[test]
    fn first_member_shadows_duplicates() {
        let mut k = fixture();
        let (out, _) = with_union(
            &mut k,
            r#"
            .data
            p: .asciz "/u/Makefile"
            buf: .space 32
            .text
            main:
                la r0, p
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
            "#,
        );
        assert_eq!(out, RunOutcome::AllExited);
        assert_eq!(k.console.output_string(), "from-src");
    }

    #[test]
    fn getdirentries_merges_and_dedups() {
        // List /u and print every entry name separated by newlines.
        let mut k = fixture();
        let (out, _) = with_union(
            &mut k,
            r#"
            .data
            p:    .asciz "/u"
            buf:  .space 2048
            .text
            main:
                la r0, p
                li r1, 0
                li r2, 0
                sys open
                mov r3, r0
                mov r0, r3
                la r1, buf
                li r2, 2048
                li r3, 0
                sys getdirentries
                ; r0 = bytes; walk records printing names
                la  r10, buf        ; cursor
                add r11, r10, r0    ; end
            walk:
                sltu r6, r10, r11
                jz  r6, done
                ld  r4, 8(r10)      ; reclen(u16)+namlen(u16) packed
                li  r6, 0xffff
                and r5, r4, r6      ; reclen
                li  r6, 16
                shr r4, r4, r6
                li  r6, 0xffff
                and r4, r4, r6      ; namlen
                ; write(1, r10+12, namlen)
                li  r0, 1
                addi r1, r10, 12
                mov r2, r4
                sys write
                ; write newline
                la  r1, nl
                li  r2, 1
                li  r0, 1
                sys write
                add r10, r10, r5
                jmp walk
            done:
                li r0, 0
                sys exit
            .data
            nl: .asciz "\n"
            "#,
        );
        assert_eq!(out, RunOutcome::AllExited);
        let text = k.console.output_string();
        let names: Vec<&str> = text.lines().collect();
        assert!(names.contains(&"main.c"), "{names:?}");
        assert!(names.contains(&"util.c"), "{names:?}");
        assert!(names.contains(&"main.o"), "{names:?}");
        assert_eq!(
            names.iter().filter(|n| **n == "Makefile").count(),
            1,
            "duplicate suppressed: {names:?}"
        );
        assert_eq!(names.iter().filter(|n| **n == ".").count(), 1);
        assert_eq!(names.iter().filter(|n| **n == "..").count(), 1);
    }

    #[test]
    fn stat_and_unlink_hit_owning_member() {
        let mut k = fixture();
        let (out, _) = with_union(
            &mut k,
            r#"
            .data
            p: .asciz "/u/main.o"
            st: .space 96
            .text
            main:
                la r0, p
                la r1, st
                sys stat
                mov r10, r0
                la r0, p
                sys unlink
                add r0, r0, r10
                sys exit
            "#,
        );
        assert_eq!(out, RunOutcome::AllExited);
        assert_eq!(
            k.exit_status(1),
            Some(ia_abi::signal::wait_status_exited(0)),
            "stat and unlink both succeeded"
        );
        assert!(k.read_file(b"/obj/main.o").is_err(), "removed from /obj");
        assert!(k.read_file(b"/src/main.c").is_ok(), "others untouched");
    }

    #[test]
    fn creations_go_to_first_member() {
        let mut k = fixture();
        let (_, _) = with_union(
            &mut k,
            r#"
            .data
            p: .asciz "/u/new.txt"
            t: .asciz "hi"
            .text
            main:
                la r0, p
                li r1, 0x601
                li r2, 420
                sys open
                mov r3, r0
                mov r0, r3
                la r1, t
                li r2, 2
                sys write
                mov r0, r3
                sys close
                li r0, 0
                sys exit
            "#,
        );
        assert_eq!(k.read_file(b"/src/new.txt").unwrap(), b"hi");
        assert!(k.read_file(b"/obj/new.txt").is_err());
    }

    #[test]
    fn paths_outside_mounts_untouched() {
        let mut k = fixture();
        let (out, _) = with_union(
            &mut k,
            r#"
            .data
            p: .asciz "/src/main.c"
            st: .space 96
            .text
            main:
                la r0, p
                la r1, st
                sys stat
                sys exit
            "#,
        );
        assert_eq!(out, RunOutcome::AllExited);
        assert_eq!(
            k.exit_status(1),
            Some(ia_abi::signal::wait_status_exited(0))
        );
    }
}
