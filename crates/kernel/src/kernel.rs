//! The kernel object: owns the filesystem, the process table, the open-file
//! and socket tables, the console and the virtual clock, and implements the
//! bottom instance of the system interface.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use ia_abi::signal::Signal;
use ia_abi::{Errno, OpenFlags, SysResult};
use ia_vfs::{Cred, Fs, Ino, PipeId};
use ia_vm::{AddressSpace, Image, VmState, DEFAULT_MEM_SIZE};

use crate::clock::{Clock, MachineProfile};
use crate::console::{Console, DEV_NULL, DEV_TTY, DEV_ZERO};
use crate::exec_cache::{ExecCache, PreparedImage};
use crate::files::{FdEntry, FdTable, FileKind, OpenFiles, SockId};
use crate::process::{Emulation, Pid, ProcState, Process, SigState, Usage, WaitChannel};
use crate::socket::SocketTable;

/// Outcome of a bottom-level system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysOutcome {
    /// Completed; apply the result to the trap registers.
    Done(SysResult),
    /// Completed, but the registers must not be touched (successful
    /// `execve`, `sigreturn`, `exit`).
    NoReturn,
    /// Would block; park the process on this channel and restart the trap
    /// when it fires.
    Block(WaitChannel),
}

impl SysOutcome {
    /// Shorthand for an error outcome.
    #[must_use]
    pub fn err(e: Errno) -> SysOutcome {
        SysOutcome::Done(Err(e))
    }

    /// The reduced [`ia_obs::Outcome`] mirror of this outcome, for the
    /// metrics layer-exit hooks (ia-obs cannot name `SysOutcome`).
    #[must_use]
    pub fn obs_outcome(&self) -> ia_obs::Outcome {
        match self {
            SysOutcome::Done(Ok(_)) => ia_obs::Outcome::Ok,
            SysOutcome::Done(Err(e)) => ia_obs::Outcome::Err(*e as u32),
            SysOutcome::NoReturn => ia_obs::Outcome::NoReturn,
            SysOutcome::Block(_) => ia_obs::Outcome::Block,
        }
    }

    /// Shorthand for a single-value success.
    #[must_use]
    pub fn ok1(v: u64) -> SysOutcome {
        SysOutcome::Done(Ok([v, 0]))
    }

    /// Shorthand for `Ok([0, 0])`.
    #[must_use]
    pub fn ok() -> SysOutcome {
        SysOutcome::Done(Ok([0, 0]))
    }
}

/// An event that may unblock parked processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeEvent {
    /// Activity on a pipe (bytes moved or an endpoint closed).
    Pipe(PipeId),
    /// A child of this pid changed state.
    ChildOf(Pid),
    /// A signal was posted to this pid.
    SignalTo(Pid),
    /// Console input arrived.
    Tty,
    /// A listening socket gained a connection.
    Sock(SockId),
}

/// Advisory `flock` state for one inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct FlockState {
    pub shared: u32,
    pub exclusive: bool,
}

/// Host-side counters over the scheduler hot path. These measure the
/// *simulator's* work, not the simulated machine's — they are not part of
/// the virtual-time model and never influence it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Slice turns executed (a burst counts each of its turns).
    pub slices: u64,
    /// Interval-timer expirations fired.
    pub timer_fires: u64,
}

/// Host-side hit/miss counters for the in-loop syscall fast path, keyed by
/// `(pid, raw syscall number)`. A *hit* is a trap answered inside the VM
/// loop; a *miss* is a trap on a fast-answerable number that went through
/// the ordinary dispatcher instead (fast path off, chain interested, other
/// processes runnable, …). Like [`PerfCounters`], these measure the
/// simulator, never the simulated machine.
#[derive(Debug, Clone, Default)]
pub struct FastPathStats {
    /// `(pid, raw syscall number) → (hits, misses)`.
    pub counts: HashMap<(Pid, u32), (u64, u64)>,
}

impl FastPathStats {
    /// Records `n` in-loop answers of `nr` for `pid`.
    pub fn note_hits(&mut self, pid: Pid, nr: u32, n: u64) {
        self.counts.entry((pid, nr)).or_default().0 += n;
    }

    /// Records one ordinary dispatch of a fast-answerable number.
    pub fn note_miss(&mut self, pid: Pid, nr: u32) {
        self.counts.entry((pid, nr)).or_default().1 += 1;
    }

    /// Total hits across all processes and numbers.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.counts.values().map(|&(h, _)| h).sum()
    }

    /// Total misses across all processes and numbers.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.counts.values().map(|&(_, m)| m).sum()
    }

    /// All counters as `((pid, nr), (hits, misses))` rows, sorted by pid
    /// then syscall number, for stable reports.
    #[must_use]
    pub fn rows(&self) -> Vec<((Pid, u32), (u64, u64))> {
        let mut v: Vec<_> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }
}

/// Which loop the scheduler runs guest code in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The differential reference: one `run_slice` turn over the plain
    /// `step` interpreter per scheduler round. Every trap is routed;
    /// nothing is answered in-loop.
    Plain,
    /// Production: `run_burst_fused` over the per-image
    /// [`ia_vm::FusedProgram`], running back-to-back turns and (with the
    /// fast path on) answering `getpid`/`gettimeofday` in-loop whenever
    /// nothing could preempt. Bit-identical accounting, fewer dispatches.
    #[default]
    Fused,
}

/// Host-side execution counters for the fused engine, indexed like
/// [`ia_vm::FUSED_KIND_NAMES`]. Each hit is one executed superinstruction
/// standing for two retired constituents. Like [`PerfCounters`], these
/// measure the simulator, never the simulated machine.
#[derive(Debug, Clone, Default)]
pub struct FusionStats {
    /// Executed superinstructions per family.
    pub hits: [u64; ia_vm::FUSED_KINDS],
}

impl FusionStats {
    /// Folds one burst's hit counts in.
    pub(crate) fn add(&mut self, hits: &[u64; ia_vm::FUSED_KINDS]) {
        for (acc, h) in self.hits.iter_mut().zip(hits) {
            *acc += h;
        }
    }

    /// Total superinstructions executed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// `(family name, hits)` rows in reporting order.
    #[must_use]
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        ia_vm::FUSED_KIND_NAMES
            .iter()
            .zip(self.hits)
            .map(|(&n, h)| (n, h))
            .collect()
    }
}

/// The simulated 4.3BSD kernel.
///
/// Its fields are the *world* — everything a [`Kernel::snapshot`] captures
/// by cloning the whole value — except the host configuration fixed at
/// build, which [`Kernel::restore`] keeps (listed on [`KernelSnapshot`]).
///
/// [`KernelSnapshot`]: crate::KernelSnapshot
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The filesystem.
    pub fs: Fs,
    /// The virtual clock.
    pub clock: Clock,
    /// The machine cost profile.
    pub profile: MachineProfile,
    /// The console device.
    pub console: Console,
    /// System-wide open files.
    pub files: OpenFiles,
    /// Socket table.
    pub sockets: SocketTable,
    pub(crate) procs: HashMap<Pid, Process>,
    pub(crate) next_pid: Pid,
    pub(crate) wakeups: Vec<WakeEvent>,
    pub(crate) exit_log: HashMap<Pid, u32>,
    /// The [`Emulation`] of the last process reaped the moment it exited
    /// (an orphan has no table entry to hold it), kept under its pid until
    /// [`Kernel::take_emulation`] collects it for the exit hook.
    pub(crate) departed: Option<(Pid, Box<dyn Emulation>)>,
    pub(crate) flocks: HashMap<Ino, FlockState>,
    /// Scheduler hot-path counters (host-side; see [`PerfCounters`]).
    pub perf: PerfCounters,
    /// Total syscalls dispatched at the kernel level, for reports.
    pub total_syscalls: u64,
    /// Total user instructions retired across all processes, for reports
    /// and for exact loop-overhead subtraction in micro-benchmarks.
    pub total_insns: u64,
    /// Flight recorder (ia-obs). Disabled by default; every hook is
    /// observably inert: it never advances the virtual clock and never
    /// changes which path the scheduler takes.
    pub obs: ia_obs::Obs,
    /// Enables the trap fast path: in-loop `getpid`/`gettimeofday` answers
    /// on the fused engine (it does nothing on [`Engine::Plain`]). On by
    /// default; the conform oracle turns it off to prove the fast and slow
    /// paths are bit-identical.
    pub fast_path: bool,
    /// Fast-path hit/miss counters (host-side; see [`FastPathStats`]).
    pub fast_stats: FastPathStats,
    /// Which loop the scheduler executes guest code in (see [`Engine`]).
    /// Fused by default; the conform oracle pins it both ways to prove the
    /// engines are bit-identical.
    pub engine: Engine,
    /// Fused-engine hit counters (host-side; see [`FusionStats`]).
    pub fusion_stats: FusionStats,
    /// Digest-keyed `spawn`/`execve` image cache, carrying the exec gate
    /// fixed at build (see [`ExecCache`]). A shared handle: branches and
    /// fleet tenants built over it share its entries and its gate.
    pub(crate) exec_cache: ExecCache,
    /// The id handed to the next [`Kernel::snapshot`]. A handle shared with
    /// every branch of this kernel and never rewound by a restore, so every
    /// snapshot taken by this kernel or its branches gets a distinct id.
    pub(crate) next_snapshot_id: Arc<AtomicU64>,
}

/// The one way to construct a [`Kernel`]: every knob that used to be a
/// post-construction field poke or `set_*` call is a builder method, and
/// [`KernelBuilder::build`] yields a ready, [`Send`] kernel.
///
/// ```
/// use ia_kernel::{KernelBuilder, RunOutcome};
///
/// let mut kernel = KernelBuilder::new().build();
/// let image = ia_vm::assemble(
///     ".data\nmsg: .asciz \"hi\"\n.text\nmain:\n li r0, 1\n la r1, msg\n li r2, 2\n sys write\n li r0, 0\n sys exit\n",
/// )
/// .unwrap();
/// kernel.spawn_image(&image, &[b"hello"], b"hello");
/// assert_eq!(kernel.run_to_completion(), RunOutcome::AllExited);
/// assert_eq!(kernel.console.output_string(), "hi");
/// ```
///
/// Mass instantiation (the fleet case) shares the read-only bases:
/// `base_vfs` replaces the per-kernel skeleton build with an O(1)
/// persistent-trie clone of a prototype filesystem, and `exec_cache`
/// attaches a shared prepare cache so the first tenant to exec an image
/// decodes it for everyone. Tenant spin-up is then a handful of `Arc`
/// bumps plus one empty-table `Kernel` literal.
#[must_use = "a builder does nothing until .build()"]
pub struct KernelBuilder {
    profile: MachineProfile,
    engine: Engine,
    fast_path: bool,
    exec_cache: Option<ExecCache>,
    base_vfs: Option<Fs>,
}

impl Default for KernelBuilder {
    fn default() -> KernelBuilder {
        KernelBuilder::new()
    }
}

impl KernelBuilder {
    /// Starts from the defaults: the i486/25 cost profile, the fused
    /// engine, the trap fast path on, a private ungated exec cache, and a
    /// freshly built skeleton filesystem.
    pub fn new() -> KernelBuilder {
        KernelBuilder {
            profile: crate::clock::I486_25,
            engine: Engine::default(),
            fast_path: true,
            exec_cache: None,
            base_vfs: None,
        }
    }

    /// The machine cost profile (default [`I486_25`](crate::I486_25)).
    pub fn profile(mut self, profile: MachineProfile) -> KernelBuilder {
        self.profile = profile;
        self
    }

    /// Which loop the scheduler runs guest code in (default
    /// [`Engine::Fused`]).
    pub fn engine(mut self, engine: Engine) -> KernelBuilder {
        self.engine = engine;
        self
    }

    /// The trap fast path — in-loop `getpid`/`gettimeofday` answers on the
    /// fused engine; inert on [`Engine::Plain`] (default on; the conform
    /// oracle pins it both ways).
    pub fn fast_path(mut self, on: bool) -> KernelBuilder {
        self.fast_path = on;
        self
    }

    /// Attaches an existing (typically shared) [`ExecCache`] handle
    /// instead of a private one — the only way to give a kernel an exec
    /// gate ([`ExecCache::gated`]).
    pub fn exec_cache(mut self, cache: ExecCache) -> KernelBuilder {
        self.exec_cache = Some(cache);
        self
    }

    /// Starts from a prototype filesystem instead of building the skeleton
    /// — an O(1) persistent-trie clone; divergent writes copy paths, the
    /// common base stays shared. The fleet hands every tenant one
    /// `Arc<Fs>` and pays one clone per tenant.
    pub fn base_vfs(mut self, base: &Fs) -> KernelBuilder {
        self.base_vfs = Some(base.clone());
        self
    }

    /// The standard filesystem skeleton: `/dev/{null,zero,tty}`, `/bin`,
    /// `/tmp`, `/usr`, `/etc`, `/home`. This is what [`build`] uses when
    /// no `base_vfs` is given; a fleet builds it once, decorates it, and
    /// passes it to every tenant.
    ///
    /// [`build`]: KernelBuilder::build
    #[must_use]
    pub fn skeleton_vfs(now: ia_abi::Timeval) -> Fs {
        let mut fs = Fs::new(now);
        let root = ia_vfs::inode::ROOT_INO;
        let dev = fs
            .mkdir(root, b"dev", 0o755, Cred::ROOT, now)
            .expect("mkdir /dev");
        fs.mknod_chardev(dev, b"null", DEV_NULL, 0o666, Cred::ROOT, now)
            .expect("/dev/null");
        fs.mknod_chardev(dev, b"zero", DEV_ZERO, 0o666, Cred::ROOT, now)
            .expect("/dev/zero");
        fs.mknod_chardev(dev, b"tty", DEV_TTY, 0o666, Cred::ROOT, now)
            .expect("/dev/tty");
        for d in [&b"bin"[..], b"tmp", b"usr", b"etc", b"home"] {
            fs.mkdir(
                root,
                d,
                if d == b"tmp" { 0o777 } else { 0o755 },
                Cred::ROOT,
                now,
            )
            .expect("skeleton dir");
        }
        fs
    }

    /// Boots the kernel.
    pub fn build(self) -> Kernel {
        let clock = Clock::new();
        let fs = match self.base_vfs {
            Some(fs) => fs,
            None => KernelBuilder::skeleton_vfs(clock.now()),
        };
        Kernel {
            fs,
            clock,
            profile: self.profile,
            console: Console::new(),
            files: OpenFiles::new(),
            sockets: SocketTable::new(),
            procs: HashMap::new(),
            next_pid: 1,
            wakeups: Vec::new(),
            exit_log: HashMap::new(),
            departed: None,
            flocks: HashMap::new(),
            perf: PerfCounters::default(),
            total_syscalls: 0,
            total_insns: 0,
            obs: ia_obs::Obs::new(),
            fast_path: self.fast_path,
            fast_stats: FastPathStats::default(),
            engine: self.engine,
            fusion_stats: FusionStats::default(),
            exec_cache: self.exec_cache.unwrap_or_default(),
            next_snapshot_id: Arc::new(AtomicU64::new(1)),
        }
    }
}

impl Kernel {
    /// `(hits, misses)` of the exec image cache, for reports and tests.
    /// When the cache is shared, these are fleet-wide totals.
    #[must_use]
    pub fn exec_cache_stats(&self) -> (u64, u64) {
        (self.exec_cache.hits(), self.exec_cache.misses())
    }

    /// A handle to this kernel's exec cache — clone it into another
    /// builder's [`KernelBuilder::exec_cache`] to share.
    #[must_use]
    pub fn exec_cache_handle(&self) -> ExecCache {
        self.exec_cache.clone()
    }

    // ---- host-side conveniences (the "operator", not the interface) ----

    /// Creates every missing directory along an absolute path.
    pub fn mkdir_p(&mut self, path: &[u8]) -> Result<Ino, Errno> {
        let now = self.clock.now();
        let root = ia_vfs::inode::ROOT_INO;
        let mut cur = root;
        for comp in ia_vfs::split_components(path) {
            cur = match self.fs.resolve(cur, comp, Cred::ROOT) {
                Ok(r) => r.ino,
                Err(Errno::ENOENT) => self.fs.mkdir(cur, comp, 0o755, Cred::ROOT, now)?,
                Err(e) => return Err(e),
            };
        }
        Ok(cur)
    }

    /// Writes (creating or replacing) a file at an absolute path.
    pub fn write_file(&mut self, path: &[u8], data: &[u8]) -> Result<Ino, Errno> {
        let now = self.clock.now();
        let root = ia_vfs::inode::ROOT_INO;
        let (dir, base) = self.fs.resolve_parent(root, path, Cred::ROOT)?;
        let ino = match self.fs.resolve(dir, &base, Cred::ROOT) {
            Ok(r) => {
                self.fs.truncate(r.ino, 0, now)?;
                r.ino
            }
            Err(Errno::ENOENT) => self.fs.create_file(dir, &base, 0o644, Cred::ROOT, now)?,
            Err(e) => return Err(e),
        };
        self.fs.write_at(ino, 0, data, now)?;
        Ok(ino)
    }

    /// Reads a whole file at an absolute path.
    pub fn read_file(&mut self, path: &[u8]) -> Result<Vec<u8>, Errno> {
        let root = ia_vfs::inode::ROOT_INO;
        let ino = self.fs.resolve(root, path, Cred::ROOT)?.ino;
        let len = self.fs.get(ino)?.size() as usize;
        let now = self.clock.now();
        self.fs.read_at(ino, 0, len, now)
    }

    /// Installs a program image as an executable file.
    pub fn install_image(&mut self, path: &[u8], image: &Image) -> Result<Ino, Errno> {
        let ino = self.write_file(path, &image.to_bytes())?;
        let now = self.clock.now();
        self.fs.chmod(ino, 0o755, Cred::ROOT, now)?;
        Ok(ino)
    }

    // ---- process management --------------------------------------------

    fn alloc_pid(&mut self) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        pid
    }

    /// Spawns a process running `image` directly (without going through the
    /// filesystem), with fds 0/1/2 on the console. Returns the new pid.
    pub fn spawn_image(&mut self, image: &Image, argv: &[&[u8]], name: &[u8]) -> Pid {
        let prepared = PreparedImage::prepare(image.clone());
        self.spawn_prepared(&prepared, argv, name)
    }

    /// [`Kernel::spawn_image`] over an already-prepared executable — the
    /// landing point of the cached `spawn` path.
    pub(crate) fn spawn_prepared(
        &mut self,
        prepared: &PreparedImage,
        argv: &[&[u8]],
        name: &[u8],
    ) -> Pid {
        let image = &prepared.image;
        let pid = self.alloc_pid();
        let mut mem = AddressSpace::new(DEFAULT_MEM_SIZE, 0);
        image.load_into(&mut mem).expect("image fits default space");
        let mut vm = VmState::new(image.entry, DEFAULT_MEM_SIZE);
        push_args(&mut vm, &mut mem, argv).expect("argv fits");

        let mut fds = FdTable::new();
        let tty = self
            .files
            .insert(FileKind::Device(DEV_TTY), OpenFlags::new(OpenFlags::O_RDWR));
        self.files.incref(tty);
        self.files.incref(tty);
        for _ in 0..3 {
            fds.alloc(
                0,
                FdEntry {
                    file: tty,
                    cloexec: false,
                },
            )
            .expect("empty table");
        }

        let proc = Process {
            pid,
            ppid: 0,
            pgrp: pid,
            vm,
            mem,
            code: Arc::clone(&prepared.code),
            fused: Arc::clone(&prepared.fused),
            state: ProcState::Runnable,
            pending_trap: None,
            fds,
            cwd: ia_vfs::inode::ROOT_INO,
            root: ia_vfs::inode::ROOT_INO,
            uid: 0,
            euid: 0,
            gid: 0,
            egid: 0,
            umask: 0o022,
            sig: SigState::default(),
            usage: Usage::default(),
            itimer: None,
            name: name.to_vec(),
            priority: 0,
            select_deadline: None,
            emulation: None,
        };
        self.procs.insert(pid, proc);
        pid
    }

    /// Spawns a process from an executable image file in the filesystem.
    pub fn spawn(&mut self, path: &[u8], argv: &[&[u8]]) -> Result<Pid, Errno> {
        let bytes = self.read_file(path)?;
        let prepared = self.exec_cache.prepare(&bytes)?;
        let name = path.rsplit(|&c| c == b'/').next().unwrap_or(path).to_vec();
        Ok(self.spawn_prepared(&prepared, argv, &name))
    }

    /// Borrows a process.
    pub fn proc(&self, pid: Pid) -> Result<&Process, Errno> {
        self.procs.get(&pid).ok_or(Errno::ESRCH)
    }

    /// Mutably borrows a process.
    pub fn proc_mut(&mut self, pid: Pid) -> Result<&mut Process, Errno> {
        self.procs.get_mut(&pid).ok_or(Errno::ESRCH)
    }

    /// Takes `pid`'s [`Emulation`] out: the process's own, or, for a
    /// process reaped when it exited, the one it left behind.
    pub fn take_emulation(&mut self, pid: Pid) -> Option<Box<dyn Emulation>> {
        match self.procs.get_mut(&pid) {
            Some(p) => p.emulation.take(),
            None => self
                .departed
                .take_if(|(dead, _)| *dead == pid)
                .map(|(_, e)| e),
        }
    }

    /// Gives `pid` its [`Emulation`] back. If the process was reaped in
    /// the meantime, it is left behind for [`Kernel::take_emulation`].
    pub fn set_emulation(&mut self, pid: Pid, emulation: Box<dyn Emulation>) {
        match self.procs.get_mut(&pid) {
            Some(p) => p.emulation = Some(emulation),
            None => self.departed = Some((pid, emulation)),
        }
    }

    /// The pid the next `fork` or spawn will be given. Pids are never
    /// reused, so a process created after this reading has a pid at or
    /// above it.
    #[must_use]
    pub fn next_pid(&self) -> Pid {
        self.next_pid
    }

    /// Live pids (including zombies), in ascending order.
    #[must_use]
    pub fn pids(&self) -> Vec<Pid> {
        let mut v: Vec<Pid> = self.procs.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of processes that are not zombies.
    #[must_use]
    pub fn running_count(&self) -> usize {
        self.procs
            .values()
            .filter(|p| !matches!(p.state, ProcState::Zombie(_)))
            .count()
    }

    /// The recorded wait-status of an exited (and reaped) process.
    #[must_use]
    pub fn exit_status(&self, pid: Pid) -> Option<u32> {
        if let Some(p) = self.procs.get(&pid) {
            if let ProcState::Zombie(st) = p.state {
                return Some(st);
            }
        }
        self.exit_log.get(&pid).copied()
    }

    // ---- signals ---------------------------------------------------------

    /// Posts a signal to a process, waking it if blocked or stopped.
    pub fn post_signal(&mut self, pid: Pid, sig: Signal) -> Result<(), Errno> {
        let p = self.procs.get_mut(&pid).ok_or(Errno::ESRCH)?;
        if matches!(p.state, ProcState::Zombie(_)) {
            return Ok(());
        }
        if sig == Signal::SIGKILL {
            // SIGKILL can be neither caught nor blocked, and it resumes a
            // stopped process only to kill it: terminate on the spot.
            self.terminate(pid, ia_abi::signal::wait_status_signaled(sig));
            self.wakeups.push(WakeEvent::SignalTo(pid));
            return Ok(());
        }
        if sig == Signal::SIGCONT && p.state == ProcState::Stopped {
            p.state = ProcState::Runnable;
            // A default-action SIGCONT's whole job was the resume.
            if matches!(
                p.sig.action(sig).disposition,
                ia_abi::SigDisposition::Default
            ) {
                self.wakeups.push(WakeEvent::SignalTo(pid));
                return Ok(());
            }
        }
        p.sig.post(sig);
        self.wakeups.push(WakeEvent::SignalTo(pid));
        Ok(())
    }

    /// Posts a signal to every member of a process group. Returns how many
    /// processes were signalled.
    pub fn post_signal_pgrp(&mut self, pgrp: Pid, sig: Signal, sender: Pid) -> usize {
        let targets: Vec<Pid> = self
            .procs
            .values()
            .filter(|p| p.pgrp == pgrp && p.pid != 0)
            .filter(|p| self.procs.get(&sender).is_none_or(|s| s.can_signal(p)))
            .map(|p| p.pid)
            .collect();
        let n = targets.len();
        for t in targets {
            let _ = self.post_signal(t, sig);
        }
        n
    }

    /// Terminates a process with the given wait-status word: releases its
    /// descriptors, reparents its children, notifies the parent.
    pub(crate) fn terminate(&mut self, pid: Pid, status: u32) {
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        let ppid = p.ppid;
        let entries = p.fds.drain();
        p.state = ProcState::Zombie(status);
        p.pending_trap = None;
        for e in entries {
            self.release_file(e.file);
        }
        // Reparent children to "nobody"; auto-reap any zombies among them.
        let children: Vec<Pid> = self
            .procs
            .values()
            .filter(|c| c.ppid == pid)
            .map(|c| c.pid)
            .collect();
        for c in children {
            let child = self.procs.get_mut(&c).expect("listed");
            child.ppid = 0;
            if let ProcState::Zombie(st) = child.state {
                self.exit_log.insert(c, st);
                self.procs.remove(&c);
            }
        }
        if ppid != 0 && self.procs.contains_key(&ppid) {
            let _ = self.post_signal(ppid, Signal::SIGCHLD);
            self.wakeups.push(WakeEvent::ChildOf(ppid));
        } else {
            // Orphan: nobody will wait; reap immediately.
            self.exit_log.insert(pid, status);
            if let Some(e) = self.procs.remove(&pid).and_then(|p| p.emulation) {
                self.departed = Some((pid, e));
            }
        }
    }

    // ---- open-file plumbing ----------------------------------------------

    /// Drops one descriptor reference to an open file, releasing the
    /// underlying object when the last reference goes.
    pub(crate) fn release_file(&mut self, idx: crate::files::FileIdx) {
        if let Some(last) = self.files.decref(idx) {
            match last.kind {
                FileKind::Vnode(ino) => self.fs.decref(ino),
                FileKind::PipeRead(id) => {
                    self.fs.pipes.drop_reader(id);
                    self.wakeups.push(WakeEvent::Pipe(id));
                }
                FileKind::PipeWrite(id) => {
                    self.fs.pipes.drop_writer(id);
                    self.wakeups.push(WakeEvent::Pipe(id));
                }
                FileKind::Device(_) => {}
                FileKind::Socket(sid) => {
                    // Peers blocked reading/writing the connection wait on
                    // the underlying pipes, so hangup must wake those
                    // channels too, not just acceptors.
                    if let Ok(s) = self.sockets.get(sid) {
                        if let crate::socket::SockState::Connected { rx, tx } = s.state {
                            self.wakeups.push(WakeEvent::Pipe(rx));
                            self.wakeups.push(WakeEvent::Pipe(tx));
                        }
                    }
                    self.sockets.release(sid, &mut self.fs.pipes);
                    self.wakeups.push(WakeEvent::Sock(sid));
                }
            }
            if let FileKind::Vnode(ino) = last.kind {
                self.flock_release(ino);
            }
        }
    }

    pub(crate) fn flock_release(&mut self, ino: Ino) {
        // Conservative: releasing any descriptor to the inode clears one
        // shared hold or the exclusive hold.
        if let Some(st) = self.flocks.get_mut(&ino) {
            if st.exclusive {
                st.exclusive = false;
            } else if st.shared > 0 {
                st.shared -= 1;
            }
            if !st.exclusive && st.shared == 0 {
                self.flocks.remove(&ino);
            }
        }
    }

    /// Drains accumulated wake events (scheduler use).
    pub(crate) fn take_wakeups(&mut self) -> Vec<WakeEvent> {
        std::mem::take(&mut self.wakeups)
    }
}

/// Pushes `argv` onto a fresh stack: strings at the top, then the pointer
/// array, leaving `r0 = argc`, `r1 = &argv[0]` and the stack pointer below.
pub fn push_args(vm: &mut VmState, mem: &mut AddressSpace, argv: &[&[u8]]) -> Result<(), Errno> {
    let mut sp = mem.size() as u64;
    let mut ptrs = Vec::with_capacity(argv.len());
    for arg in argv {
        sp -= arg.len() as u64 + 1;
        mem.write_cstr(sp, arg)?;
        ptrs.push(sp);
    }
    sp &= !7; // align
    sp -= 8; // NULL terminator
    mem.write_u64(sp, 0)?;
    for &p in ptrs.iter().rev() {
        sp -= 8;
        mem.write_u64(sp, p)?;
    }
    vm.regs[0] = argv.len() as u64;
    vm.regs[1] = sp;
    vm.regs[15] = sp;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_builds_skeleton() {
        let mut k = KernelBuilder::new().build();
        for p in [
            &b"/dev/null"[..],
            b"/dev/zero",
            b"/dev/tty",
            b"/bin",
            b"/tmp",
            b"/etc",
        ] {
            assert!(
                k.fs.resolve(ia_vfs::inode::ROOT_INO, p, Cred::ROOT).is_ok(),
                "{}",
                String::from_utf8_lossy(p)
            );
        }
        let _ = &mut k;
    }

    #[test]
    fn write_read_file_round_trip() {
        let mut k = KernelBuilder::new().build();
        k.write_file(b"/etc/motd", b"welcome\n").unwrap();
        assert_eq!(k.read_file(b"/etc/motd").unwrap(), b"welcome\n");
        // Overwrite truncates.
        k.write_file(b"/etc/motd", b"hi").unwrap();
        assert_eq!(k.read_file(b"/etc/motd").unwrap(), b"hi");
    }

    #[test]
    fn mkdir_p_is_idempotent() {
        let mut k = KernelBuilder::new().build();
        let a = k.mkdir_p(b"/a/b/c").unwrap();
        let b = k.mkdir_p(b"/a/b/c").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn spawn_image_sets_up_stdio_and_args() {
        let mut k = KernelBuilder::new().build();
        let img = ia_vm::assemble("main: halt\n").unwrap();
        let pid = k.spawn_image(&img, &[b"prog", b"arg1"], b"prog");
        let p = k.proc(pid).unwrap();
        assert_eq!(p.vm.regs[0], 2, "argc");
        let argv0 = p.mem.read_u64(p.vm.regs[1]).unwrap();
        assert_eq!(p.mem.read_cstr(argv0, 64).unwrap(), b"prog");
        let argv1 = p.mem.read_u64(p.vm.regs[1] + 8).unwrap();
        assert_eq!(p.mem.read_cstr(argv1, 64).unwrap(), b"arg1");
        assert_eq!(p.mem.read_u64(p.vm.regs[1] + 16).unwrap(), 0, "NULL end");
        for fd in 0..3 {
            assert!(p.fds.get(fd).is_ok(), "fd {fd} open");
        }
    }

    #[test]
    fn spawn_from_fs_requires_valid_image() {
        let mut k = KernelBuilder::new().build();
        k.write_file(b"/bin/bad", b"not an image").unwrap();
        assert_eq!(k.spawn(b"/bin/bad", &[b"bad"]), Err(Errno::ENOEXEC));
        let img = ia_vm::assemble("main: halt\n").unwrap();
        k.install_image(b"/bin/ok", &img).unwrap();
        assert!(k.spawn(b"/bin/ok", &[b"ok"]).is_ok());
    }

    #[test]
    fn post_signal_to_missing_process_is_esrch() {
        let mut k = KernelBuilder::new().build();
        assert_eq!(k.post_signal(99, Signal::SIGTERM), Err(Errno::ESRCH));
    }

    #[test]
    fn terminate_reparents_and_notifies() {
        let mut k = KernelBuilder::new().build();
        let img = ia_vm::assemble("main: halt\n").unwrap();
        let parent = k.spawn_image(&img, &[b"p"], b"p");
        let child = k.spawn_image(&img, &[b"c"], b"c");
        k.proc_mut(child).unwrap().ppid = parent;
        k.terminate(child, ia_abi::signal::wait_status_exited(3));
        // Child is a zombie awaiting wait4; parent got SIGCHLD.
        assert!(matches!(k.proc(child).unwrap().state, ProcState::Zombie(_)));
        assert!(k
            .proc(parent)
            .unwrap()
            .sig
            .pending
            .contains(Signal::SIGCHLD));
        // Parent dies; the zombie child is auto-reaped.
        k.terminate(parent, 0);
        assert!(k.proc(child).is_err());
        assert_eq!(
            k.exit_status(child),
            Some(ia_abi::signal::wait_status_exited(3))
        );
    }
}
