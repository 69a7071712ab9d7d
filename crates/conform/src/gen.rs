//! Seeded random-program generation over the full syscall surface.
//!
//! A [`Program`] is a seed plus a sequence of [`ConfOp`]s — high-level
//! operations that compile (via [`ia_vm::ProgramBuilder`]) into
//! self-contained instruction sequences. Keeping the op list explicit, not
//! just the seed, is what makes delta-debugging possible: the shrinker
//! removes ops and recompiles, and a minimized list round-trips through a
//! `.conf` text file for replay.
//!
//! Every op is written to stay correct under *arbitrary injected errors*:
//! each syscall whose failure would change control flow is errno-checked
//! (r1 != 0 after the trap), blocking calls are only reached when their
//! wake-up is already guaranteed, and retry loops are bounded. A generated
//! program therefore always terminates, with or without fault injection —
//! non-termination under injection is a kernel bug, not a generator bug.

use ia_abi::{OpenFlags, Sysno};
use ia_kernel::Kernel;
use ia_prng::Prng;
use ia_vm::{Image, Insn, ProgramBuilder};

/// Code index of the shared signal handler. Indices 0 and 1 hold `nop`s
/// because handler addresses 0 and 1 read as `SIG_DFL` and `SIG_IGN` in a
/// `sigaction` record.
pub const HANDLER_INDEX: u64 = 2;

/// `SIGALRM`'s number.
const SIGALRM: u64 = 14;
/// `SIGUSR1`'s number.
const SIGUSR1: u64 = 30;
/// `SIGKILL`'s number.
const SIGKILL: u64 = 9;

/// Wait-status a fork-exec child image exits with.
pub const EXEC_CHILD_STATUS: u64 = 5;

/// Op-class bitmask, for restricting the vocabulary (e.g. filesystem-only
/// programs when testing agents that transform file contents).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSet(pub u16);

impl OpSet {
    /// Console echoes.
    pub const CONSOLE: u16 = 0x001;
    /// Regular-file data ops (open/read/write/close/truncate/dup/lseek).
    pub const FILE: u16 = 0x002;
    /// Directory shape ops (mkdir/rmdir).
    pub const DIR: u16 = 0x004;
    /// Namespace/metadata ops (link, symlink, rename, chmod, chdir, stat).
    pub const META: u16 = 0x008;
    /// fork / wait.
    pub const PROC: u16 = 0x010;
    /// Signals, itimers, sigsuspend.
    pub const SIG: u16 = 0x020;
    /// Clock reads and select timeouts.
    pub const TIME: u16 = 0x040;
    /// Pipes (and select over them).
    pub const PIPE: u16 = 0x080;
    /// Socketpairs.
    pub const SOCK: u16 = 0x100;
    /// Pure compute.
    pub const CPU: u16 = 0x200;
    /// fork + execve of an installed image.
    pub const EXEC: u16 = 0x400;

    /// Every op class.
    pub const ALL: OpSet = OpSet(0x7ff);
    /// Console + file + namespace + compute: programs whose whole effect
    /// is under `/tmp/mix`, suitable for content-transforming agents.
    pub const FS_CLIENT: OpSet = OpSet(Self::CONSOLE | Self::FILE | Self::META | Self::CPU);

    /// True when `class` is enabled.
    #[must_use]
    pub fn allows(self, class: u16) -> bool {
        self.0 & class != 0
    }
}

/// One generated operation. Field values index fixed pools (4 paths, 4
/// payloads) or give small magnitudes; all are further reduced modulo the
/// pool size at compile time so any byte deserializes to a valid op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings are documented on each variant
pub enum ConfOp {
    /// `write(1, payload)`.
    Echo { payload: u8 },
    /// Create/truncate a pool file and write a payload.
    CreateWrite { file: u8, payload: u8 },
    /// Append a payload to a pool file (created if missing).
    AppendWrite { file: u8, payload: u8 },
    /// Open a pool file, read it, echo the bytes to the console.
    ReadEcho { file: u8 },
    /// `stat` + `lstat` + `access` a pool file (results unprinted).
    StatFile { file: u8 },
    /// Identity calls: getpid/getppid/getuid/getgid/getpgrp/umask.
    QueryIds,
    /// `gettimeofday` into scratch (never printed: times differ by design
    /// across agent configurations).
    TimeOfDay,
    /// Make and remove `/tmp/mix/sub`.
    MkdirRmdir,
    /// Hard-link a pool file to `/tmp/mix/aux`, then unlink the link.
    LinkUnlink { file: u8 },
    /// Symlink, readlink (echoing the target), unlink.
    SymlinkEcho { file: u8 },
    /// Rename a pool file away and back.
    RenameShuffle { file: u8 },
    /// Chmod a pool file to 0600 and back to 0644.
    ChmodCycle { file: u8 },
    /// Chdir into `/tmp/mix`, stat a relative name, chdir back to `/`.
    ChdirStat { file: u8 },
    /// Open, dup, dup2-to-slot-9, lseek, close everything.
    DupShuffle { file: u8 },
    /// Truncate a pool file to a small length.
    TruncateShort { file: u8, len: u8 },
    /// pipe; write payload; read it back; echo; close both ends.
    PipeEcho { payload: u8 },
    /// pipe; write; select until readable; read; echo; close.
    SelectPipe { payload: u8 },
    /// socketpair; write on one end; read from the other; echo; close.
    SocketEcho { payload: u8 },
    /// fork; child echoes payload and exits `status`; parent waits.
    ForkWait { payload: u8, status: u8 },
    /// fork; child execs `/bin/conform-child`; parent waits.
    ForkExecWait,
    /// fork; child makes `calls` getpids and exits on its own; parent
    /// SIGKILLs it (usually mid-calls) and waits.
    ForkKill { calls: u8 },
    /// sigaction(SIGALRM) + one-shot setitimer + sigsuspend.
    AlarmHandler { delay_us: u16 },
    /// Pure sleep: `select(0, …, timeout)`.
    SelectSleep { timeout_us: u16 },
    /// sigaction(SIGUSR1) + kill(getpid(), SIGUSR1).
    KillHandler,
    /// Compute loop.
    Burn { iters: u16 },
}

/// A complete generated program: seed (flavors payload strings) + ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Generation seed; only payload contents depend on it after sampling.
    pub seed: u64,
    /// The operation sequence.
    pub ops: Vec<ConfOp>,
}

/// Draws a program of `nops` operations from the classes in `set`.
#[must_use]
pub fn sample(seed: u64, nops: usize, set: OpSet) -> Program {
    type Ctor = fn(&mut Prng) -> ConfOp;
    let vocab: &[(u16, Ctor)] = &[
        (OpSet::CONSOLE, |r| ConfOp::Echo {
            payload: r.below(4) as u8,
        }),
        (OpSet::FILE, |r| ConfOp::CreateWrite {
            file: r.below(4) as u8,
            payload: r.below(4) as u8,
        }),
        (OpSet::FILE, |r| ConfOp::AppendWrite {
            file: r.below(4) as u8,
            payload: r.below(4) as u8,
        }),
        (OpSet::FILE, |r| ConfOp::ReadEcho {
            file: r.below(4) as u8,
        }),
        (OpSet::META, |r| ConfOp::StatFile {
            file: r.below(4) as u8,
        }),
        (OpSet::CPU, |_| ConfOp::QueryIds),
        (OpSet::TIME, |_| ConfOp::TimeOfDay),
        (OpSet::DIR, |_| ConfOp::MkdirRmdir),
        (OpSet::META, |r| ConfOp::LinkUnlink {
            file: r.below(4) as u8,
        }),
        (OpSet::META, |r| ConfOp::SymlinkEcho {
            file: r.below(4) as u8,
        }),
        (OpSet::META, |r| ConfOp::RenameShuffle {
            file: r.below(4) as u8,
        }),
        (OpSet::META, |r| ConfOp::ChmodCycle {
            file: r.below(4) as u8,
        }),
        (OpSet::META, |r| ConfOp::ChdirStat {
            file: r.below(4) as u8,
        }),
        (OpSet::FILE, |r| ConfOp::DupShuffle {
            file: r.below(4) as u8,
        }),
        (OpSet::FILE, |r| ConfOp::TruncateShort {
            file: r.below(4) as u8,
            len: r.below(8) as u8,
        }),
        (OpSet::PIPE, |r| ConfOp::PipeEcho {
            payload: r.below(4) as u8,
        }),
        (OpSet::PIPE, |r| ConfOp::SelectPipe {
            payload: r.below(4) as u8,
        }),
        (OpSet::SOCK, |r| ConfOp::SocketEcho {
            payload: r.below(4) as u8,
        }),
        (OpSet::PROC, |r| ConfOp::ForkWait {
            payload: r.below(4) as u8,
            status: r.below(32) as u8,
        }),
        (OpSet::EXEC, |_| ConfOp::ForkExecWait),
        (OpSet::PROC, |r| ConfOp::ForkKill {
            calls: r.range_u64(2, 6) as u8,
        }),
        (OpSet::SIG, |r| ConfOp::AlarmHandler {
            delay_us: r.range_u64(50, 2000) as u16,
        }),
        (OpSet::TIME, |r| ConfOp::SelectSleep {
            timeout_us: r.range_u64(50, 2000) as u16,
        }),
        (OpSet::SIG, |_| ConfOp::KillHandler),
        (OpSet::CPU, |r| ConfOp::Burn {
            iters: r.range_u64(5, 200) as u16,
        }),
    ];
    let allowed: Vec<&(u16, Ctor)> = vocab.iter().filter(|(c, _)| set.allows(*c)).collect();
    assert!(!allowed.is_empty(), "empty op vocabulary");
    let mut rng = Prng::new(seed ^ 0xc0f0_91e5_5eed_0001);
    let ops = (0..nops)
        .map(|_| {
            let (_, ctor) = allowed[rng.below(allowed.len() as u64) as usize];
            ctor(&mut rng)
        })
        .collect();
    Program { seed, ops }
}

/// Fixed data-segment layout shared by every op.
struct Layout {
    buf: u64,
    statbuf: u64,
    scratch: u64,
    bang: u64,
    mark: u64,
    act: u64,
    root: u64,
    mixdir: u64,
    aux: u64,
    sym: u64,
    sub: u64,
    execpath: u64,
    paths: Vec<u64>,
    rels: Vec<u64>,
    payloads: Vec<(u64, u64)>,
}

impl Layout {
    fn emit(b: &mut ProgramBuilder, seed: u64) -> Layout {
        Layout {
            buf: b.data_space(128),
            statbuf: b.data_space(160),
            scratch: b.data_space(32),
            bang: b.data_asciz(b"!"),
            mark: b.data_asciz(b"<"),
            // SigActionRec: handler u64, mask u32, flags u32.
            act: {
                let a = b.data_quad(HANDLER_INDEX);
                b.data_quad(0);
                a
            },
            root: b.data_asciz(b"/"),
            mixdir: b.data_asciz(b"/tmp/mix"),
            aux: b.data_asciz(b"/tmp/mix/aux"),
            sym: b.data_asciz(b"/tmp/mix/sym"),
            sub: b.data_asciz(b"/tmp/mix/sub"),
            execpath: b.data_asciz(b"/bin/conform-child"),
            paths: (0..4)
                .map(|i| b.data_asciz(format!("/tmp/mix/f{i}.dat").as_bytes()))
                .collect(),
            rels: (0..4)
                .map(|i| b.data_asciz(format!("f{i}.dat").as_bytes()))
                .collect(),
            payloads: (0..4)
                .map(|i| {
                    let s = format!("p{i}-{seed:x}.");
                    (b.data_asciz(s.as_bytes()), s.len() as u64)
                })
                .collect(),
        }
    }
}

impl Program {
    /// Compiles the op sequence to an executable image.
    #[must_use]
    pub fn compile(&self) -> Image {
        let mut b = ProgramBuilder::new();
        let d = Layout::emit(&mut b, self.seed);

        // Indices 0/1 must not be the handler (they read as SIG_DFL and
        // SIG_IGN in sigaction records).
        b.emit(Insn::Nop);
        b.emit(Insn::Nop);
        // The shared signal handler, at HANDLER_INDEX: echo "!" and return.
        b.mov(9, 1); // save SigContext address
        b.li(0, 1);
        b.la(1, d.bang);
        b.li(2, 1);
        b.sys(Sysno::Write);
        b.mov(0, 9);
        b.sys(Sysno::Sigreturn);

        b.entry_here();
        for op in &self.ops {
            op.emit(&mut b, &d);
        }
        // Exit, retried forever in case an agent vetoes it.
        let again = b.here();
        b.li(0, 0);
        b.sys(Sysno::Exit);
        b.jmp(again);
        b.build()
    }

    /// Prepares a kernel for this (or any) generated program.
    pub fn setup(k: &mut Kernel) {
        k.mkdir_p(b"/tmp/mix").expect("mkdir /tmp/mix");
        k.mkdir_p(b"/bin").expect("mkdir /bin");
        k.install_image(b"/bin/conform-child", &exec_child_image())
            .expect("install child image");
    }

    /// Deduplicated syscall surface of the whole program, for building
    /// fault-injection schedules. `exit` and `sigreturn` are excluded: an
    /// agent may legitimately fail them, but a schedule that does so tests
    /// the agent contract (covered elsewhere), not kernel consistency.
    #[must_use]
    pub fn syscall_surface(&self) -> Vec<Sysno> {
        let mut seen = std::collections::BTreeSet::new();
        for op in &self.ops {
            for &s in op.syscalls() {
                if !matches!(s, Sysno::Exit | Sysno::Sigreturn) {
                    seen.insert(s.number());
                }
            }
        }
        ia_abi::sysno::ALL_SYSCALLS
            .iter()
            .copied()
            .filter(|s| seen.contains(&s.number()))
            .collect()
    }
}

/// The image installed at `/bin/conform-child`: echoes a marker, exits 5.
#[must_use]
pub fn exec_child_image() -> Image {
    let mut b = ProgramBuilder::new();
    let msg = b.data_asciz(b"X");
    b.li(0, 1);
    b.la(1, msg);
    b.li(2, 1);
    b.sys(Sysno::Write);
    let again = b.here();
    b.li(0, EXEC_CHILD_STATUS);
    b.sys(Sysno::Exit);
    b.jmp(again);
    b.build()
}

impl ConfOp {
    /// Syscalls this op can issue (for fault-schedule construction).
    #[must_use]
    pub fn syscalls(&self) -> &'static [Sysno] {
        use Sysno::*;
        match self {
            ConfOp::Echo { .. } => &[Write],
            ConfOp::CreateWrite { .. } | ConfOp::AppendWrite { .. } => &[Open, Write, Close],
            ConfOp::ReadEcho { .. } => &[Open, Read, Write, Close],
            ConfOp::StatFile { .. } => &[Stat, Lstat, Access],
            ConfOp::QueryIds => &[Getpid, Getppid, Getuid, Getgid, Getpgrp, Umask],
            ConfOp::TimeOfDay => &[Gettimeofday],
            ConfOp::MkdirRmdir => &[Mkdir, Rmdir],
            ConfOp::LinkUnlink { .. } => &[Link, Unlink],
            ConfOp::SymlinkEcho { .. } => &[Symlink, Readlink, Write, Unlink],
            ConfOp::RenameShuffle { .. } => &[Rename],
            ConfOp::ChmodCycle { .. } => &[Chmod],
            ConfOp::ChdirStat { .. } => &[Chdir, Stat],
            ConfOp::DupShuffle { .. } => &[Open, Dup, Dup2, Lseek, Close],
            ConfOp::TruncateShort { .. } => &[Truncate],
            ConfOp::PipeEcho { .. } => &[Pipe, Write, Read, Close],
            ConfOp::SelectPipe { .. } => &[Pipe, Write, Select, Read, Close],
            ConfOp::SocketEcho { .. } => &[Socketpair, Write, Read, Close],
            ConfOp::ForkWait { .. } => &[Fork, Wait4, Write, Exit],
            ConfOp::ForkExecWait => &[Fork, Execve, Wait4, Exit],
            ConfOp::ForkKill { .. } => &[Fork, Kill, Wait4, Getpid, Exit],
            ConfOp::AlarmHandler { .. } => &[
                Sigaction,
                Sigprocmask,
                Setitimer,
                Sigsuspend,
                Write,
                Sigreturn,
            ],
            ConfOp::SelectSleep { .. } => &[Select],
            ConfOp::KillHandler => &[Sigaction, Getpid, Kill, Write, Sigreturn],
            ConfOp::Burn { .. } => &[],
        }
    }

    /// Compiles this op. Register conventions: r0–r5 syscall args, r8 pid
    /// scratch, r9 handler scratch, r11 burn counter, r12/r13 saved fds,
    /// r14 retry counter.
    #[allow(clippy::too_many_lines)]
    fn emit(&self, b: &mut ProgramBuilder, d: &Layout) {
        let path = |f: u8| d.paths[usize::from(f) % d.paths.len()];
        let rel = |f: u8| d.rels[usize::from(f) % d.rels.len()];
        let pay = |p: u8| d.payloads[usize::from(p) % d.payloads.len()];
        match *self {
            ConfOp::Echo { payload } => {
                let (a, n) = pay(payload);
                b.li(0, 1);
                b.la(1, a);
                b.li(2, n);
                b.sys(Sysno::Write);
            }
            ConfOp::CreateWrite { file, payload } | ConfOp::AppendWrite { file, payload } => {
                let flags = if matches!(self, ConfOp::CreateWrite { .. }) {
                    OpenFlags::O_WRONLY | OpenFlags::O_CREAT | OpenFlags::O_TRUNC
                } else {
                    OpenFlags::O_WRONLY | OpenFlags::O_CREAT | OpenFlags::O_APPEND
                };
                let (a, n) = pay(payload);
                let end = b.new_label();
                b.la(0, path(file));
                b.li(1, u64::from(flags));
                b.li(2, 0o644);
                b.sys(Sysno::Open);
                b.jnz(1, end);
                b.mov(12, 0);
                b.la(1, a);
                b.li(2, n);
                b.sys(Sysno::Write);
                b.mov(0, 12);
                b.sys(Sysno::Close);
                b.bind(end);
            }
            ConfOp::ReadEcho { file } => {
                let end = b.new_label();
                let close = b.new_label();
                b.la(0, path(file));
                b.li(1, 0);
                b.li(2, 0);
                b.sys(Sysno::Open);
                b.jnz(1, end);
                b.mov(12, 0);
                // Echo a marker before the contents: a failed open must be
                // client-distinguishable from reading an empty file, or a
                // buggy agent could mask open errors invisibly.
                b.li(0, 1);
                b.la(1, d.mark);
                b.li(2, 1);
                b.sys(Sysno::Write);
                b.mov(0, 12);
                b.la(1, d.buf);
                b.li(2, 64);
                b.sys(Sysno::Read);
                b.jnz(1, close);
                b.mov(2, 0);
                b.li(0, 1);
                b.la(1, d.buf);
                b.sys(Sysno::Write);
                b.bind(close);
                b.mov(0, 12);
                b.sys(Sysno::Close);
                b.bind(end);
            }
            ConfOp::StatFile { file } => {
                b.la(0, path(file));
                b.la(1, d.statbuf);
                b.sys(Sysno::Stat);
                b.la(0, path(file));
                b.la(1, d.statbuf);
                b.sys(Sysno::Lstat);
                b.la(0, path(file));
                b.li(1, 4);
                b.sys(Sysno::Access);
            }
            ConfOp::QueryIds => {
                b.sys(Sysno::Getpid);
                b.sys(Sysno::Getppid);
                b.sys(Sysno::Getuid);
                b.sys(Sysno::Getgid);
                b.li(0, 0);
                b.sys(Sysno::Getpgrp);
                // umask twice: net effect nil, return value exercised.
                b.li(0, 0o22);
                b.sys(Sysno::Umask);
                b.li(0, 0o22);
                b.sys(Sysno::Umask);
            }
            ConfOp::TimeOfDay => {
                b.la(0, d.scratch);
                b.li(1, 0);
                b.sys(Sysno::Gettimeofday);
            }
            ConfOp::MkdirRmdir => {
                let end = b.new_label();
                b.la(0, d.sub);
                b.li(1, 0o755);
                b.sys(Sysno::Mkdir);
                b.jnz(1, end);
                b.la(0, d.sub);
                b.sys(Sysno::Rmdir);
                b.bind(end);
            }
            ConfOp::LinkUnlink { file } => {
                let end = b.new_label();
                b.la(0, path(file));
                b.la(1, d.aux);
                b.sys(Sysno::Link);
                b.jnz(1, end);
                b.la(0, d.aux);
                b.sys(Sysno::Unlink);
                b.bind(end);
            }
            ConfOp::SymlinkEcho { file } => {
                let end = b.new_label();
                let unl = b.new_label();
                b.la(0, path(file)); // link contents
                b.la(1, d.sym);
                b.sys(Sysno::Symlink);
                b.jnz(1, end);
                b.la(0, d.sym);
                b.la(1, d.buf);
                b.li(2, 64);
                b.sys(Sysno::Readlink);
                b.jnz(1, unl);
                b.mov(2, 0);
                b.li(0, 1);
                b.la(1, d.buf);
                b.sys(Sysno::Write);
                b.bind(unl);
                b.la(0, d.sym);
                b.sys(Sysno::Unlink);
                b.bind(end);
            }
            ConfOp::RenameShuffle { file } => {
                let end = b.new_label();
                b.la(0, path(file));
                b.la(1, d.aux);
                b.sys(Sysno::Rename);
                b.jnz(1, end);
                b.la(0, d.aux);
                b.la(1, path(file));
                b.sys(Sysno::Rename);
                b.bind(end);
            }
            ConfOp::ChmodCycle { file } => {
                b.la(0, path(file));
                b.li(1, 0o600);
                b.sys(Sysno::Chmod);
                b.la(0, path(file));
                b.li(1, 0o644);
                b.sys(Sysno::Chmod);
            }
            ConfOp::ChdirStat { file } => {
                let end = b.new_label();
                b.la(0, d.mixdir);
                b.sys(Sysno::Chdir);
                b.jnz(1, end);
                b.la(0, rel(file));
                b.la(1, d.statbuf);
                b.sys(Sysno::Stat);
                b.la(0, d.root);
                b.sys(Sysno::Chdir);
                b.bind(end);
            }
            ConfOp::DupShuffle { file } => {
                let end = b.new_label();
                let close1 = b.new_label();
                let nod2 = b.new_label();
                b.la(0, path(file));
                b.li(1, 0);
                b.li(2, 0);
                b.sys(Sysno::Open);
                b.jnz(1, end);
                b.mov(12, 0);
                b.sys(Sysno::Dup); // fd still in r0
                b.jnz(1, nod2);
                b.mov(13, 0);
                b.li(1, 0);
                b.li(2, 0);
                b.mov(0, 13);
                b.sys(Sysno::Lseek);
                b.mov(0, 13);
                b.sys(Sysno::Close);
                b.bind(nod2);
                b.mov(0, 12);
                b.li(1, 9);
                b.sys(Sysno::Dup2);
                b.jnz(1, close1);
                b.li(0, 9);
                b.sys(Sysno::Close);
                b.bind(close1);
                b.mov(0, 12);
                b.sys(Sysno::Close);
                b.bind(end);
            }
            ConfOp::TruncateShort { file, len } => {
                b.la(0, path(file));
                b.li(1, u64::from(len % 8));
                b.sys(Sysno::Truncate);
            }
            ConfOp::PipeEcho { payload } => {
                let (a, n) = pay(payload);
                let end = b.new_label();
                let done = b.new_label();
                b.sys(Sysno::Pipe);
                b.jnz(1, end);
                b.mov(12, 0); // read end
                b.mov(13, 2); // write end
                b.mov(0, 13);
                b.la(1, a);
                b.li(2, n);
                b.sys(Sysno::Write);
                // If the write was vetoed the pipe is empty; reading would
                // block forever (we still hold the write end).
                b.jnz(1, done);
                b.mov(0, 12);
                b.la(1, d.buf);
                b.li(2, 64);
                b.sys(Sysno::Read);
                b.jnz(1, done);
                b.mov(2, 0);
                b.li(0, 1);
                b.la(1, d.buf);
                b.sys(Sysno::Write);
                b.bind(done);
                b.mov(0, 12);
                b.sys(Sysno::Close);
                b.mov(0, 13);
                b.sys(Sysno::Close);
                b.bind(end);
            }
            ConfOp::SelectPipe { payload } => {
                let (a, n) = pay(payload);
                let end = b.new_label();
                let done = b.new_label();
                b.sys(Sysno::Pipe);
                b.jnz(1, end);
                b.mov(12, 0);
                b.mov(13, 2);
                b.mov(0, 13);
                b.la(1, a);
                b.li(2, n);
                b.sys(Sysno::Write);
                b.jnz(1, done);
                // rmask = 1 << rfd, stored to scratch; select blocks until
                // readable (data is already there, so this never hangs).
                b.li(5, 1);
                b.emit(Insn::Shl(5, 5, 12));
                b.la(4, d.scratch);
                b.st(4, 5, 0);
                b.addi(0, 12, 1);
                b.la(1, d.scratch);
                b.li(2, 0);
                b.li(3, 0);
                b.li(4, 0);
                b.sys(Sysno::Select);
                b.mov(0, 12);
                b.la(1, d.buf);
                b.li(2, 64);
                b.sys(Sysno::Read);
                b.jnz(1, done);
                b.mov(2, 0);
                b.li(0, 1);
                b.la(1, d.buf);
                b.sys(Sysno::Write);
                b.bind(done);
                b.mov(0, 12);
                b.sys(Sysno::Close);
                b.mov(0, 13);
                b.sys(Sysno::Close);
                b.bind(end);
            }
            ConfOp::SocketEcho { payload } => {
                let (a, n) = pay(payload);
                let end = b.new_label();
                let done = b.new_label();
                b.li(0, 1);
                b.li(1, 1);
                b.li(2, 0);
                b.sys(Sysno::Socketpair);
                b.jnz(1, end);
                b.mov(12, 0);
                b.mov(13, 2);
                b.mov(0, 12);
                b.la(1, a);
                b.li(2, n);
                b.sys(Sysno::Write);
                b.jnz(1, done);
                b.mov(0, 13); // a's tx feeds b's rx
                b.la(1, d.buf);
                b.li(2, 64);
                b.sys(Sysno::Read);
                b.jnz(1, done);
                b.mov(2, 0);
                b.li(0, 1);
                b.la(1, d.buf);
                b.sys(Sysno::Write);
                b.bind(done);
                b.mov(0, 12);
                b.sys(Sysno::Close);
                b.mov(0, 13);
                b.sys(Sysno::Close);
                b.bind(end);
            }
            ConfOp::ForkWait { payload, status } => {
                let (a, n) = pay(payload);
                let end = b.new_label();
                let child = b.new_label();
                let wait = b.new_label();
                b.sys(Sysno::Fork);
                b.jnz(1, end);
                b.jz(0, child);
                // Parent: bounded wait — a vetoed wait4 must not hang us,
                // and an unreaped child is auto-reaped at our exit.
                b.mov(8, 0);
                b.li(14, 8);
                b.bind(wait);
                b.jz(14, end);
                b.mov(0, 8);
                b.li(1, 0);
                b.li(2, 0);
                b.li(3, 0);
                b.sys(Sysno::Wait4);
                b.jz(1, end);
                b.addi(14, 14, -1);
                b.jmp(wait);
                b.bind(child);
                b.li(0, 1);
                b.la(1, a);
                b.li(2, n);
                b.sys(Sysno::Write);
                let again = b.here();
                b.li(0, u64::from(status % 32));
                b.sys(Sysno::Exit);
                b.jmp(again);
                b.bind(end);
            }
            ConfOp::ForkExecWait => {
                let end = b.new_label();
                let child = b.new_label();
                let wait = b.new_label();
                b.sys(Sysno::Fork);
                b.jnz(1, end);
                b.jz(0, child);
                b.mov(8, 0);
                b.li(14, 8);
                b.bind(wait);
                b.jz(14, end);
                b.mov(0, 8);
                b.li(1, 0);
                b.li(2, 0);
                b.li(3, 0);
                b.sys(Sysno::Wait4);
                b.jz(1, end);
                b.addi(14, 14, -1);
                b.jmp(wait);
                b.bind(child);
                b.la(0, d.execpath);
                b.li(1, 0);
                b.li(2, 0);
                b.sys(Sysno::Execve);
                // Only reached when exec was vetoed.
                let again = b.here();
                b.li(0, 127);
                b.sys(Sysno::Exit);
                b.jmp(again);
                b.bind(end);
            }
            ConfOp::ForkKill { calls } => {
                let end = b.new_label();
                let child = b.new_label();
                let wait = b.new_label();
                b.sys(Sysno::Fork);
                b.jnz(1, end);
                b.jz(0, child);
                // Parent: the child runs next and the two alternate trap
                // by trap, so the kill lands while the child's calls (and
                // any batch of them) are in flight. A vetoed kill leaves
                // the child to exit on its own; the wait is bounded.
                b.mov(8, 0);
                b.li(1, SIGKILL);
                b.sys(Sysno::Kill);
                b.li(14, 8);
                b.bind(wait);
                b.jz(14, end);
                b.mov(0, 8);
                b.li(1, 0);
                b.li(2, 0);
                b.li(3, 0);
                b.sys(Sysno::Wait4);
                b.jz(1, end);
                b.addi(14, 14, -1);
                b.jmp(wait);
                b.bind(child);
                b.li(14, u64::from(calls % 8).max(1));
                let call = b.here();
                b.sys(Sysno::Getpid);
                b.addi(14, 14, -1);
                b.jnz(14, call);
                let again = b.here();
                b.li(0, 0);
                b.sys(Sysno::Exit);
                b.jmp(again);
                b.bind(end);
            }
            ConfOp::AlarmHandler { delay_us } => {
                let end = b.new_label();
                // One-shot itimerval, baked per-op: interval {0,0}, value
                // {0, delay_us}.
                let itv = b.data_quad(0);
                b.data_quad(0);
                b.data_quad(0);
                b.data_quad(u64::from(delay_us.max(1)));
                b.li(0, SIGALRM);
                b.la(1, d.act);
                b.li(2, 0);
                b.sys(Sysno::Sigaction);
                b.jnz(1, end);
                // Block SIGALRM before arming the timer: agents add enough
                // virtual-clock overhead that a short one-shot timer can
                // fire before the suspend below, and an early delivery
                // would leave sigsuspend sleeping forever. Suspending with
                // an empty mask unblocks it atomically, POSIX-style.
                b.li(0, 1); // SIG_BLOCK
                b.li(1, 1 << (SIGALRM - 1));
                b.sys(Sysno::Sigprocmask);
                b.jnz(1, end);
                b.li(0, 0); // ITIMER_REAL
                b.la(1, itv);
                b.li(2, 0);
                b.sys(Sysno::Setitimer);
                // If the timer was vetoed, suspending would sleep forever.
                b.jnz(1, end);
                b.li(0, 0);
                b.sys(Sysno::Sigsuspend);
                b.bind(end);
            }
            ConfOp::SelectSleep { timeout_us } => {
                let tv = b.data_quad(0);
                b.data_quad(u64::from(timeout_us.max(1)));
                b.li(0, 0);
                b.li(1, 0);
                b.li(2, 0);
                b.li(3, 0);
                b.la(4, tv);
                b.sys(Sysno::Select);
            }
            ConfOp::KillHandler => {
                let end = b.new_label();
                b.li(0, SIGUSR1);
                b.la(1, d.act);
                b.li(2, 0);
                b.sys(Sysno::Sigaction);
                b.jnz(1, end);
                b.sys(Sysno::Getpid);
                b.jnz(1, end);
                b.mov(8, 0);
                b.mov(0, 8);
                b.li(1, SIGUSR1);
                b.sys(Sysno::Kill);
                b.bind(end);
            }
            ConfOp::Burn { iters } => b.burn(u64::from(iters)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_kernel::RunOutcome;

    #[test]
    fn same_seed_same_program() {
        let a = sample(11, 30, OpSet::ALL);
        let b = sample(11, 30, OpSet::ALL);
        assert_eq!(a, b);
        assert_ne!(a, sample(12, 30, OpSet::ALL));
        assert_eq!(a.compile(), b.compile());
    }

    #[test]
    fn restricted_vocabulary_is_respected() {
        let p = sample(3, 200, OpSet::FS_CLIENT);
        for op in &p.ops {
            assert!(
                !matches!(
                    op,
                    ConfOp::ForkWait { .. }
                        | ConfOp::ForkExecWait
                        | ConfOp::ForkKill { .. }
                        | ConfOp::PipeEcho { .. }
                        | ConfOp::SelectPipe { .. }
                        | ConfOp::SocketEcho { .. }
                        | ConfOp::AlarmHandler { .. }
                        | ConfOp::KillHandler
                ),
                "{op:?} escaped FS_CLIENT"
            );
        }
    }

    #[test]
    fn generated_programs_run_to_completion() {
        for seed in 0..12 {
            let p = sample(seed, 35, OpSet::ALL);
            let mut k = ia_kernel::KernelBuilder::new().build();
            Program::setup(&mut k);
            k.spawn_image(&p.compile(), &[b"conform"], b"conform");
            assert_eq!(k.run_to_completion(), RunOutcome::AllExited, "seed {seed}");
            assert!(k.check_quiescent().is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn fork_kill_lands_while_the_child_is_mid_calls() {
        use crate::oracle::{check_program, run_stack, StackKind};
        let p = Program {
            seed: 1,
            ops: vec![ConfOp::ForkKill { calls: 5 }],
        };
        check_program(&p).unwrap();
        // The kill lands before the child gets to exit on its own.
        let o = run_stack(&p, StackKind::Batched);
        assert_eq!(
            o.obs.client.exit_statuses.get(&2),
            Some(&ia_abi::signal::wait_status_signaled(
                ia_abi::Signal::SIGKILL
            ))
        );
    }

    #[test]
    fn surface_excludes_exit_and_sigreturn() {
        let p = sample(5, 60, OpSet::ALL);
        let surface = p.syscall_surface();
        assert!(!surface.contains(&Sysno::Exit));
        assert!(!surface.contains(&Sysno::Sigreturn));
        assert!(surface.len() > 10, "{surface:?}");
    }
}
