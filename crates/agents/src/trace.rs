//! The `trace` agent (§3.3.2) — "traces the execution of client processes,
//! printing each system call made and signal received".
//!
//! As in the paper, the trace is written through the interface itself:
//! each traced call costs "at least an additional two `write()` system
//! calls in order to write the trace output", and the output "is not
//! buffered across system calls so it will not be lost if the process is
//! killed". The log is an ordinary file in the simulated filesystem; a
//! [`TraceHandle`] additionally captures the text host-side for tests and
//! tools.
//!
//! Those two `write()`s are the only cost the agent adds per call on the
//! host as well: it formats each call once into a buffer it keeps, builds
//! each line in a second kept buffer, and appends the line to the handle
//! under one lock, or not at all once no handle is held. The only allocations left are a pathname argument read
//! out of client memory and the flag names of an `open`.
//!
//! Where the paper wrote ~1350 statements of per-call derived methods,
//! Rust's pattern matching concentrates the same per-call knowledge in
//! [`format_call`]: still proportional to the size of the interface,
//! exactly as §3.3.2 observes, just denser.

use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex, Weak};

use ia_abi::{Errno, OpenFlags, RawArgs, Signal, Sysno};
use ia_interpose::{Agent, InterestSet, SignalVerdict, SysCtx};
use ia_kernel::SysOutcome;
use ia_toolkit::{Scratch, SymCtx};

/// Host-side view of the trace text. The agents hold it only weakly: once
/// every handle is dropped they stop making the host copy, and the log
/// file alone carries the trace.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    buf: Arc<Mutex<String>>,
}

impl TraceHandle {
    /// The accumulated trace text.
    #[must_use]
    pub fn text(&self) -> String {
        self.buf.lock().unwrap().clone()
    }

    /// Number of trace lines so far.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.buf.lock().unwrap().lines().count()
    }
}

/// The tracing agent.
pub struct TraceAgent {
    log_path: Vec<u8>,
    log_fd: Option<u64>,
    scratch: Scratch,
    /// The handle's text, while some handle holds it.
    text: Weak<Mutex<String>>,
    /// The current call's text, formatted once per trap into a buffer
    /// that every trap reuses.
    call: String,
    /// The line being emitted, newline included; reused likewise.
    line: String,
}

impl TraceAgent {
    /// Default log location in the simulated filesystem.
    pub const DEFAULT_LOG: &'static [u8] = b"/tmp/trace.out";

    /// Creates a tracer logging to [`Self::DEFAULT_LOG`], returning the
    /// agent and the host-side handle.
    #[must_use]
    pub fn new() -> (TraceAgent, TraceHandle) {
        Self::with_log(Self::DEFAULT_LOG)
    }

    /// Creates a tracer logging to `path`.
    #[must_use]
    pub fn with_log(path: &[u8]) -> (TraceAgent, TraceHandle) {
        let handle = TraceHandle::default();
        (
            TraceAgent {
                log_path: path.to_vec(),
                log_fd: None,
                scratch: Scratch::new(),
                text: Arc::downgrade(&handle.buf),
                call: String::new(),
                line: String::new(),
            },
            handle,
        )
    }

    /// Emits [`Self::line`]: the host copy under one lock, if a handle is
    /// held, then one unbuffered `write()` downcall of the same bytes.
    fn emit(&mut self, ctx: &mut SysCtx<'_>) {
        if let Some(text) = self.text.upgrade() {
            text.lock().unwrap().push_str(&self.line);
        }
        if let Some(fd) = self.log_fd {
            let mut sym = SymCtx::new(ctx);
            let bytes = self.line.as_bytes();
            if let Ok(addr) = self.scratch.write(&mut sym, bytes) {
                let _ = sym.down_args(Sysno::Write, [fd, addr, bytes.len() as u64, 0, 0, 0]);
            }
        }
    }
}

impl Default for TraceAgent {
    fn default() -> Self {
        Self::new().0
    }
}

impl Agent for TraceAgent {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn interests(&self) -> InterestSet {
        InterestSet::ALL
    }

    fn init(&mut self, ctx: &mut SysCtx<'_>, args: &[Vec<u8>]) {
        if let Some(p) = args.first() {
            self.log_path = p.clone();
        }
        let mut sym = SymCtx::new(ctx);
        self.scratch.reset();
        if let Ok(addr) = self.scratch.write_cstr(&mut sym, &self.log_path) {
            let flags = u64::from(OpenFlags::O_WRONLY | OpenFlags::O_CREAT | OpenFlags::O_APPEND);
            if let SysOutcome::Done(Ok([fd, _])) =
                sym.down_args(Sysno::Open, [addr, flags, 0o644, 0, 0, 0])
            {
                self.log_fd = Some(fd);
            }
        }
    }

    fn init_child(&mut self, _ctx: &mut SysCtx<'_>) {
        // The log descriptor was inherited across fork; O_APPEND keeps the
        // interleaved writes safe.
    }

    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        self.scratch.reset();
        self.call.clear();
        format_call(&mut SymCtx::new(ctx), nr, &args, &mut self.call);
        // Print the entry line only on first delivery, not on restarts of
        // a blocked call.
        if ctx.restarts == 0 {
            self.line.clear();
            self.line.push_str(&self.call);
            self.line.push_str(" ...\n");
            self.emit(ctx);
        }
        let out = ctx.down(nr, args);
        match out {
            SysOutcome::Done(res) => {
                self.line.clear();
                self.line.push_str("... ");
                self.line.push_str(&self.call);
                self.line.push_str(" -> ");
                format_result(res, &mut self.line);
                self.line.push('\n');
                self.emit(ctx);
            }
            SysOutcome::NoReturn => {
                // exit / exec / sigreturn: no result line, as in the paper.
            }
            SysOutcome::Block(_) => {
                // Will restart; the result line comes from the retry.
            }
        }
        out
    }

    fn signal_incoming(&mut self, ctx: &mut SysCtx<'_>, sig: Signal) -> SignalVerdict {
        self.scratch.reset();
        self.line.clear();
        let _ = writeln!(self.line, "--- signal {sig} ---");
        self.emit(ctx);
        SignalVerdict::Deliver
    }

    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(TraceAgent {
            log_path: self.log_path.clone(),
            log_fd: self.log_fd,
            scratch: self.scratch.deep_clone(),
            text: self.text.clone(),
            call: String::new(),
            line: String::new(),
        })
    }
}

/// A pathname argument for display: quoted, or the raw pointer when it
/// does not read.
enum PathArg {
    Read(Vec<u8>),
    Bad(u64),
}

impl fmt::Display for PathArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathArg::Read(p) => write!(f, "\"{}\"", String::from_utf8_lossy(p)),
            PathArg::Bad(addr) => write!(f, "{addr:#x}"),
        }
    }
}

fn path_arg(ctx: &mut SymCtx<'_, '_>, addr: u64) -> PathArg {
    ctx.read_path(addr)
        .map_or(PathArg::Bad(addr), PathArg::Read)
}

/// A signal-number argument for display: its name, or the number.
struct SigArg(u64);

impl fmt::Display for SigArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match Signal::from_u32(self.0 as u32) {
            Some(s) => write!(f, "{s}"),
            None => write!(f, "{}", self.0),
        }
    }
}

/// Appends one system call to `out`, with per-call argument knowledge —
/// the trace agent's interface-proportional core.
pub fn format_call(ctx: &mut SymCtx<'_, '_>, nr: u32, args: &RawArgs, out: &mut String) {
    // Writing into a `String` cannot fail.
    let Some(sys) = Sysno::from_u32(nr) else {
        let _ = write!(
            out,
            "syscall({nr}, {:#x}, {:#x}, {:#x})",
            args[0], args[1], args[2]
        );
        return;
    };
    use Sysno::*;
    let _ = match sys {
        Open => write!(
            out,
            "open({}, {}, {:#o})",
            path_arg(ctx, args[0]),
            OpenFlags::new(args[1] as u32).describe(),
            args[2]
        ),
        Read => write!(out, "read({}, {:#x}, {:#x})", args[0], args[1], args[2]),
        Write => write!(out, "write({}, {:#x}, {:#x})", args[0], args[1], args[2]),
        Close => write!(out, "close({})", args[0]),
        Exit => write!(out, "exit({})", args[0]),
        Fork => out.write_str("fork()"),
        Vfork => out.write_str("vfork()"),
        Wait4 => write!(
            out,
            "wait4({}, {:#x}, {}, {:#x})",
            args[0] as i64, args[1], args[2], args[3]
        ),
        Link => write!(
            out,
            "link({}, {})",
            path_arg(ctx, args[0]),
            path_arg(ctx, args[1])
        ),
        Unlink => write!(out, "unlink({})", path_arg(ctx, args[0])),
        Chdir => write!(out, "chdir({})", path_arg(ctx, args[0])),
        Fchdir => write!(out, "fchdir({})", args[0]),
        Mknod => write!(
            out,
            "mknod({}, {:#o}, {})",
            path_arg(ctx, args[0]),
            args[1],
            args[2]
        ),
        Chmod => write!(out, "chmod({}, {:#o})", path_arg(ctx, args[0]), args[1]),
        Chown => write!(
            out,
            "chown({}, {}, {})",
            path_arg(ctx, args[0]),
            args[1] as i64,
            args[2] as i64
        ),
        Sbrk => write!(out, "sbrk({})", args[0] as i64),
        Lseek => write!(out, "lseek({}, {}, {})", args[0], args[1] as i64, args[2]),
        Getpid => out.write_str("getpid()"),
        Getppid => out.write_str("getppid()"),
        Getuid => out.write_str("getuid()"),
        Geteuid => out.write_str("geteuid()"),
        Getgid => out.write_str("getgid()"),
        Getegid => out.write_str("getegid()"),
        Setuid => write!(out, "setuid({})", args[0]),
        Setgid => write!(out, "setgid({})", args[0]),
        Setreuid => write!(out, "setreuid({}, {})", args[0] as i64, args[1] as i64),
        Setregid => write!(out, "setregid({}, {})", args[0] as i64, args[1] as i64),
        Access => write!(out, "access({}, {})", path_arg(ctx, args[0]), args[1]),
        Sync => out.write_str("sync()"),
        Kill => write!(out, "kill({}, {})", args[0] as i64, SigArg(args[1])),
        Stat => write!(out, "stat({}, {:#x})", path_arg(ctx, args[0]), args[1]),
        Lstat => write!(out, "lstat({}, {:#x})", path_arg(ctx, args[0]), args[1]),
        Fstat => write!(out, "fstat({}, {:#x})", args[0], args[1]),
        Dup => write!(out, "dup({})", args[0]),
        Dup2 => write!(out, "dup2({}, {})", args[0], args[1]),
        Pipe => out.write_str("pipe()"),
        Sigaction => write!(
            out,
            "sigaction({}, {:#x}, {:#x})",
            SigArg(args[0]),
            args[1],
            args[2]
        ),
        Sigprocmask => write!(out, "sigprocmask({}, {:#x})", args[0], args[1]),
        Sigpending => out.write_str("sigpending()"),
        Sigsuspend => write!(out, "sigsuspend({:#x})", args[0]),
        Sigreturn => write!(out, "sigreturn({:#x})", args[0]),
        Ioctl => write!(out, "ioctl({}, {:#x}, {:#x})", args[0], args[1], args[2]),
        Symlink => write!(
            out,
            "symlink({}, {})",
            path_arg(ctx, args[0]),
            path_arg(ctx, args[1])
        ),
        Readlink => write!(
            out,
            "readlink({}, {:#x}, {})",
            path_arg(ctx, args[0]),
            args[1],
            args[2]
        ),
        Execve => write!(
            out,
            "execve({}, {:#x}, {:#x})",
            path_arg(ctx, args[0]),
            args[1],
            args[2]
        ),
        Umask => write!(out, "umask({:#o})", args[0]),
        Chroot => write!(out, "chroot({})", path_arg(ctx, args[0])),
        Getpgrp => out.write_str("getpgrp()"),
        Setpgid => write!(out, "setpgid({}, {})", args[0], args[1]),
        Setsid => out.write_str("setsid()"),
        Setitimer => write!(
            out,
            "setitimer({}, {:#x}, {:#x})",
            args[0], args[1], args[2]
        ),
        Getitimer => write!(out, "getitimer({}, {:#x})", args[0], args[1]),
        Getdtablesize => out.write_str("getdtablesize()"),
        Fcntl => write!(out, "fcntl({}, {}, {:#x})", args[0], args[1], args[2]),
        Select => write!(
            out,
            "select({}, {:#x}, {:#x}, {:#x}, {:#x})",
            args[0], args[1], args[2], args[3], args[4]
        ),
        Fsync => write!(out, "fsync({})", args[0]),
        Setpriority => write!(
            out,
            "setpriority({}, {}, {})",
            args[0], args[1], args[2] as i64
        ),
        Getpriority => write!(out, "getpriority({}, {})", args[0], args[1]),
        Socket => write!(out, "socket({}, {}, {})", args[0], args[1], args[2]),
        Socketpair => write!(out, "socketpair({}, {}, {})", args[0], args[1], args[2]),
        Bind => write!(out, "bind({}, {})", args[0], path_arg(ctx, args[1])),
        Connect => write!(out, "connect({}, {})", args[0], path_arg(ctx, args[1])),
        Listen => write!(out, "listen({}, {})", args[0], args[1]),
        Accept => write!(out, "accept({}, {:#x}, {:#x})", args[0], args[1], args[2]),
        Gettimeofday => write!(out, "gettimeofday({:#x}, {:#x})", args[0], args[1]),
        Settimeofday => write!(out, "settimeofday({:#x}, {:#x})", args[0], args[1]),
        Adjtime => write!(out, "adjtime({:#x}, {:#x})", args[0], args[1]),
        Getrusage => write!(out, "getrusage({}, {:#x})", args[0], args[1]),
        Readv => write!(out, "readv({}, {:#x}, {})", args[0], args[1], args[2]),
        Writev => write!(out, "writev({}, {:#x}, {})", args[0], args[1], args[2]),
        Fchown => write!(
            out,
            "fchown({}, {}, {})",
            args[0], args[1] as i64, args[2] as i64
        ),
        Fchmod => write!(out, "fchmod({}, {:#o})", args[0], args[1]),
        Rename => write!(
            out,
            "rename({}, {})",
            path_arg(ctx, args[0]),
            path_arg(ctx, args[1])
        ),
        Truncate => write!(out, "truncate({}, {})", path_arg(ctx, args[0]), args[1]),
        Ftruncate => write!(out, "ftruncate({}, {})", args[0], args[1]),
        Flock => write!(out, "flock({}, {})", args[0], args[1]),
        Mkfifo => write!(out, "mkfifo({}, {:#o})", path_arg(ctx, args[0]), args[1]),
        Mkdir => write!(out, "mkdir({}, {:#o})", path_arg(ctx, args[0]), args[1]),
        Rmdir => write!(out, "rmdir({})", path_arg(ctx, args[0])),
        Utimes => write!(out, "utimes({}, {:#x})", path_arg(ctx, args[0]), args[1]),
        Getdirentries => write!(
            out,
            "getdirentries({}, {:#x}, {}, {:#x})",
            args[0], args[1], args[2], args[3]
        ),
    };
}

/// Appends a completed result to `out`: value, or `-1 ERRNO`.
pub fn format_result(res: Result<[u64; 2], Errno>, out: &mut String) {
    let _ = match res {
        Ok([a, 0]) => write!(out, "{a}"),
        Ok([a, b]) => write!(out, "({a}, {b})"),
        Err(e) => write!(out, "-1 {}", e.name()),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::{spawn_with_agent, InterposedRouter};
    use ia_kernel::{Kernel, KernelBuilder, RunOutcome};

    fn run_traced(src: &str) -> (Kernel, TraceHandle) {
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let mut router = InterposedRouter::new();
        let (agent, handle) = TraceAgent::new();
        spawn_with_agent(&mut k, Box::new(agent), &[], &img, &[b"client"], b"client");
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        (k, handle)
    }

    #[test]
    fn traces_calls_with_decoded_paths_and_results() {
        let (k, handle) = run_traced(
            r#"
            .data
            path: .asciz "/tmp/x"
            .text
            main:
                la r0, path
                li r1, 0x601
                li r2, 420
                sys open
                mov r3, r0
                mov r0, r3
                sys close
                li r0, 7
                sys exit
            "#,
        );
        let text = handle.text();
        assert!(
            text.contains(r#"open("/tmp/x", O_WRONLY|O_CREAT|O_TRUNC, 0o644)"#),
            "decoded open line, got:\n{text}"
        );
        // fd 3 is the trace log itself (opened at agent init), so the
        // client's file lands on fd 4.
        assert!(text.contains("-> 4"), "open returned fd 4:\n{text}");
        assert!(text.contains("close(4)"));
        assert!(text.contains("exit(7)"));
        // The log is also a real file in the simulated filesystem.
        let mut k = k;
        let log = k.read_file(TraceAgent::DEFAULT_LOG).unwrap();
        assert!(!log.is_empty());
        let log_text = String::from_utf8_lossy(&log);
        assert!(log_text.contains("close(4)"));
    }

    #[test]
    fn trace_records_errors_symbolically() {
        let (_, handle) = run_traced(
            r#"
            .data
            path: .asciz "/no/such/file"
            .text
            main:
                la r0, path
                li r1, 0
                li r2, 0
                sys open
                li r0, 0
                sys exit
            "#,
        );
        assert!(
            handle.text().contains("-> -1 ENOENT"),
            "got:\n{}",
            handle.text()
        );
    }

    #[test]
    fn trace_records_signals() {
        let (_, handle) = run_traced(
            r#"
            main:
                sys getpid
                li r1, 2        ; SIGINT
                sys kill
                li r0, 0
                sys exit
            "#,
        );
        assert!(
            handle.text().contains("--- signal SIGINT ---"),
            "got:\n{}",
            handle.text()
        );
    }

    /// The whole trace of a small fixed program, byte for byte: entry and
    /// result lines, decoded paths and flags, an errno, a pair result, a
    /// signal and an exit without a result line.
    #[test]
    fn trace_text_is_pinned() {
        let (mut k, handle) = run_traced(
            r#"
            .data
            path: .asciz "/tmp/pinned"
            none: .asciz "/no/such"
            msg: .ascii "hello"
            buf: .space 16
            .text
            main:
                la r0, path
                li r1, 0x601
                li r2, 420
                sys open
                mov r12, r0
                la r1, msg
                li r2, 5
                sys write
                mov r0, r12
                li r1, 0
                li r2, 0
                sys lseek
                mov r0, r12
                sys close
                la r0, none
                li r1, 0
                li r2, 0
                sys open
                sys pipe
                sys getpid
                li r1, 16       ; SIGURG: ignored by default
                sys kill
                li r0, 3
                sys exit
            "#,
        );
        let want: String = [
            r#"open("/tmp/pinned", O_WRONLY|O_CREAT|O_TRUNC, 0o644) ..."#,
            r#"... open("/tmp/pinned", O_WRONLY|O_CREAT|O_TRUNC, 0o644) -> 4"#,
            r#"write(4, 0x1015, 0x5) ..."#,
            r#"... write(4, 0x1015, 0x5) -> 5"#,
            r#"lseek(4, 0, 0) ..."#,
            r#"... lseek(4, 0, 0) -> 0"#,
            r#"close(4) ..."#,
            r#"... close(4) -> 0"#,
            r#"open("/no/such", O_RDONLY, 0o0) ..."#,
            r#"... open("/no/such", O_RDONLY, 0o0) -> -1 ENOENT"#,
            r#"pipe() ..."#,
            r#"... pipe() -> (4, 5)"#,
            r#"getpid() ..."#,
            r#"... getpid() -> 1"#,
            r#"kill(1, SIGURG) ..."#,
            r#"... kill(1, SIGURG) -> 0"#,
            r#"--- signal SIGURG ---"#,
            r#"exit(3) ..."#,
        ]
        .iter()
        .map(|line| format!("{line}\n"))
        .collect();
        assert_eq!(handle.text(), want);
        let log = k.read_file(TraceAgent::DEFAULT_LOG).unwrap();
        assert_eq!(log, want.as_bytes(), "the log file holds the same bytes");
    }

    /// With its handle dropped the agent keeps no host copy, and its log
    /// file, virtual time and client stay exactly as with one held.
    #[test]
    fn a_dropped_handle_leaves_the_log_and_the_clock_alone() {
        let src = "main: sys getpid\n li r0, 0\n sys exit\n";
        let (held, handle) = run_traced(src);
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let mut router = InterposedRouter::new();
        let (agent, dropped) = TraceAgent::new();
        drop(dropped);
        spawn_with_agent(&mut k, Box::new(agent), &[], &img, &[b"client"], b"client");
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(k.clock.elapsed_ns(), held.clock.elapsed_ns());
        assert_eq!(k.observable(), held.observable());
        let log = k.read_file(TraceAgent::DEFAULT_LOG).unwrap();
        assert_eq!(log, handle.text().as_bytes());
    }

    #[test]
    fn each_call_costs_two_extra_writes() {
        // Paper §3.4.1.1: each traced call results in at least two
        // additional write() calls for the log.
        let (k, handle) = run_traced("main: sys getpid\n li r0, 0\n sys exit\n");
        // getpid produces 2 lines; exit produces 1 (no result line).
        assert_eq!(handle.lines(), 3, "got:\n{}", handle.text());
        let _ = k;
    }
}
