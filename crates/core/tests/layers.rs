//! Tests of the toolkit layers in isolation: scratch staging, the
//! directory-object machinery, and the descriptor table's dup/close
//! tracking in `FsAgent`.

use ia_abi::{DirEntry, Errno, Sysno};
use ia_interpose::InterposedRouter;
use ia_kernel::{KernelBuilder, RunOutcome};
use ia_toolkit::{
    obj_ref, DirObject, Directory, FsAgent, ObjRef, OpenObject, PathIntent, Pathname, PathnameSet,
    Scratch, SymCtx, Symbolic,
};
use std::sync::{Arc, Mutex};

/// A pathname-set that wraps every opened file in a counting object, to
/// observe the descriptor-table plumbing.
#[derive(Clone, Default)]
struct Counting {
    events: Arc<Mutex<Vec<String>>>,
}

struct CountingPathname {
    inner: ia_toolkit::DefaultPathname,
    events: Arc<Mutex<Vec<String>>>,
}

struct CountingObject {
    events: Arc<Mutex<Vec<String>>>,
}

impl PathnameSet for Counting {
    fn getpn(
        &mut self,
        _ctx: &mut SymCtx<'_, '_>,
        path: &[u8],
        _intent: PathIntent,
        scratch: &Scratch,
    ) -> Box<dyn Pathname> {
        Box::new(CountingPathname {
            inner: ia_toolkit::DefaultPathname::new(path, scratch.clone()),
            events: self.events.clone(),
        })
    }
}

impl Pathname for CountingPathname {
    fn path(&self) -> &[u8] {
        self.inner.path()
    }
    fn scratch(&self) -> &Scratch {
        self.inner.scratch()
    }
    fn clone_pathname(&self) -> Box<dyn Pathname> {
        Box::new(CountingPathname {
            inner: self.inner.clone(),
            events: self.events.clone(),
        })
    }
    fn open(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        flags: u64,
        mode: u64,
    ) -> (ia_kernel::SysOutcome, Option<ObjRef>) {
        let (out, _) = self.inner.open(ctx, flags, mode);
        let obj = obj_ref(CountingObject {
            events: self.events.clone(),
        });
        (out, Some(obj))
    }
}

impl OpenObject for CountingObject {
    fn obj_name(&self) -> &'static str {
        "counting"
    }
    fn read(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        fd: u64,
        buf: u64,
        n: u64,
    ) -> ia_kernel::SysOutcome {
        self.events.lock().unwrap().push(format!("read fd{fd}"));
        ctx.down_args(Sysno::Read, [fd, buf, n, 0, 0, 0])
    }
    fn close(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64) -> ia_kernel::SysOutcome {
        self.events
            .lock()
            .unwrap()
            .push(format!("final-close fd{fd}"));
        ctx.down_args(Sysno::Close, [fd, 0, 0, 0, 0, 0])
    }
    fn clone_object(&self) -> Box<dyn OpenObject> {
        Box::new(CountingObject {
            events: self.events.clone(),
        })
    }
}

#[test]
fn dup_shares_the_open_object_and_only_the_last_close_is_final() {
    // Program: open, dup, read via both, close one (no final), close the
    // other (final).
    let src = r#"
        .data
        path: .asciz "/tmp/f"
        buf:  .space 8
        .text
        main:
            la r0, path
            li r1, 0
            li r2, 0
            sys open
            mov r10, r0
            mov r0, r10
            sys dup
            mov r11, r0
            mov r0, r10
            la r1, buf
            li r2, 4
            sys read
            mov r0, r11
            la r1, buf
            li r2, 4
            sys read
            mov r0, r10
            sys close
            mov r0, r11
            sys close
            li r0, 0
            sys exit
    "#;
    let mut k = KernelBuilder::new().build();
    k.write_file(b"/tmp/f", b"datadata").unwrap();
    let img = ia_vm::assemble(src).unwrap();
    let pid = k.spawn_image(&img, &[b"c"], b"c");
    let counting = Counting::default();
    let events = counting.events.clone();
    let mut router = InterposedRouter::new();
    ia_interpose::push_agent(
        &mut k,
        pid,
        Box::new(Symbolic::new(FsAgent::new("counting", counting))),
    );
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);

    let ev = events.lock().unwrap().clone();
    let reads = ev.iter().filter(|e| e.starts_with("read")).count();
    let finals = ev.iter().filter(|e| e.starts_with("final-close")).count();
    assert_eq!(
        reads, 2,
        "both descriptors routed through the one object: {ev:?}"
    );
    assert_eq!(
        finals, 1,
        "only the last close is the object's close: {ev:?}"
    );
}

/// A fixed in-memory directory iterator for DirObject tests.
struct FixedDir {
    names: Vec<&'static str>,
    pos: usize,
}

impl Directory for FixedDir {
    fn next_direntry(&mut self, _ctx: &mut SymCtx<'_, '_>) -> Result<Option<DirEntry>, Errno> {
        let e = self
            .names
            .get(self.pos)
            .map(|n| DirEntry::new(100 + self.pos as u64, n.as_bytes().to_vec()));
        self.pos += 1;
        Ok(e)
    }
    fn rewind(&mut self, _ctx: &mut SymCtx<'_, '_>) -> Result<(), Errno> {
        self.pos = 0;
        Ok(())
    }
    fn clone_dir(&self) -> Box<dyn Directory> {
        Box::new(FixedDir {
            names: self.names.clone(),
            pos: self.pos,
        })
    }
}

/// Drives a DirObject directly with a real kernel context.
fn with_ctx<R>(f: impl FnOnce(&mut SymCtx<'_, '_>) -> R) -> R {
    let mut k = KernelBuilder::new().build();
    let img = ia_vm::assemble("main: halt\n").unwrap();
    let pid = k.spawn_image(&img, &[b"t"], b"t");
    let mut below: Vec<Box<dyn ia_interpose::Agent>> = Vec::new();
    let mut raw = ia_interpose::SysCtx::new(&mut k, pid, &mut below, 0);
    let mut sym = SymCtx::new(&mut raw);
    f(&mut sym)
}

#[test]
fn dirobject_paginates_with_pushback_and_basep() {
    with_ctx(|ctx| {
        let dir = FixedDir {
            names: vec!["alpha", "beta", "gamma", "delta-very-long-name"],
            pos: 0,
        };
        let mut obj = DirObject::new(Box::new(dir));
        // A buffer that fits about two records forces pagination.
        let buf = 0x4000;
        let basep = 0x5000;
        let mut all = Vec::new();
        let mut last_base = 0;
        loop {
            let out = obj.getdirentries(ctx, 0, buf, 40, basep);
            let ia_kernel::SysOutcome::Done(Ok([n, _])) = out else {
                panic!("getdirentries failed: {out:?}")
            };
            if n == 0 {
                break;
            }
            let bytes = ctx.read_bytes(buf, n as usize).unwrap();
            for e in DirEntry::decode_stream(&bytes).unwrap() {
                all.push(String::from_utf8(e.name).unwrap());
            }
            // basep reports the offset *before* this batch, monotonically.
            let base = ctx.read_bytes(basep, 8).unwrap();
            let base = u64::from_le_bytes(base.try_into().unwrap());
            assert!(base >= last_base);
            last_base = base;
        }
        assert_eq!(all, vec!["alpha", "beta", "gamma", "delta-very-long-name"]);
    });
}

#[test]
fn dirobject_rewinds_on_lseek_zero() {
    with_ctx(|ctx| {
        let dir = FixedDir {
            names: vec!["one", "two"],
            pos: 0,
        };
        let mut obj = DirObject::new(Box::new(dir));
        let buf = 0x4000;
        let first = obj.getdirentries(ctx, 0, buf, 512, 0);
        assert!(matches!(first, ia_kernel::SysOutcome::Done(Ok([n, _])) if n > 0));
        // Drain.
        let end = obj.getdirentries(ctx, 0, buf, 512, 0);
        assert!(matches!(end, ia_kernel::SysOutcome::Done(Ok([0, _]))));
        // Rewind and read again.
        let r = obj.lseek(ctx, 0, 0, 0);
        assert!(matches!(r, ia_kernel::SysOutcome::Done(Ok(_))));
        let again = obj.getdirentries(ctx, 0, buf, 512, 0);
        assert!(matches!(again, ia_kernel::SysOutcome::Done(Ok([n, _])) if n > 0));
        // Non-zero seeks on directories are rejected.
        let bad = obj.lseek(ctx, 0, 8, 0);
        assert!(matches!(
            bad,
            ia_kernel::SysOutcome::Done(Err(Errno::EINVAL))
        ));
    });
}

#[test]
fn scratch_stages_strings_and_respects_capacity() {
    with_ctx(|ctx| {
        let scratch = Scratch::new();
        let a = scratch.write_cstr(ctx, b"/first/path").unwrap();
        let b = scratch.write_cstr(ctx, b"/second").unwrap();
        assert_ne!(a, b, "distinct staging slots");
        assert_eq!(ctx.read_path(a).unwrap(), b"/first/path");
        assert_eq!(ctx.read_path(b).unwrap(), b"/second");
        // Reset reuses the space.
        scratch.reset();
        let c = scratch.write_cstr(ctx, b"/third").unwrap();
        assert_eq!(c, a, "bump pointer rewound");
        // Exhaustion is ENOMEM, not a crash.
        scratch.reset();
        let huge = vec![0u8; ia_toolkit::SCRATCH_SIZE as usize + 1];
        assert_eq!(scratch.write(ctx, &huge), Err(Errno::ENOMEM));
    });
}

#[test]
fn scratch_region_is_client_visible_memory() {
    // The staging area really lives in the client's address space: bytes
    // written by the toolkit are readable at the same addresses through
    // the process's memory.
    with_ctx(|ctx| {
        let scratch = Scratch::new();
        let addr = scratch.write(ctx, b"shared-with-client").unwrap();
        let direct = ctx.read_bytes(addr, 18).unwrap();
        assert_eq!(direct, b"shared-with-client");
    });
}
