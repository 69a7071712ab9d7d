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
//! Where the paper wrote ~1350 statements of per-call derived methods,
//! Rust's pattern matching concentrates the same per-call knowledge in
//! [`format_call`]: still proportional to the size of the interface,
//! exactly as §3.3.2 observes, just denser.

use std::sync::{Arc, Mutex};

use ia_abi::{Errno, OpenFlags, RawArgs, Signal, Sysno};
use ia_interpose::{Agent, InterestSet, SignalVerdict, SysCtx};
use ia_kernel::SysOutcome;
use ia_toolkit::{Scratch, SymCtx};

/// Host-side view of the trace text.
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
    handle: TraceHandle,
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
                handle: handle.clone(),
            },
            handle,
        )
    }

    /// Emits one line: an unbuffered `write()` downcall plus the host copy.
    fn emit(&mut self, ctx: &mut SysCtx<'_>, line: &str) {
        self.handle.buf.lock().unwrap().push_str(line);
        self.handle.buf.lock().unwrap().push('\n');
        if let Some(fd) = self.log_fd {
            let mut sym = SymCtx::new(ctx);
            let mut bytes = line.as_bytes().to_vec();
            bytes.push(b'\n');
            if let Ok(addr) = self.scratch.write(&mut sym, &bytes) {
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
        let call_text = {
            let mut sym = SymCtx::new(ctx);
            format_call(&mut sym, nr, &args)
        };
        // Print the entry line only on first delivery, not on restarts of
        // a blocked call.
        if ctx.restarts == 0 {
            let line = format!("{call_text} ...");
            self.emit(ctx, &line);
        }
        let out = ctx.down(nr, args);
        match out {
            SysOutcome::Done(res) => {
                let line = format!("... {call_text} -> {}", format_result(res));
                self.emit(ctx, &line);
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
        let line = format!("--- signal {sig} ---");
        self.emit(ctx, &line);
        SignalVerdict::Deliver
    }

    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(TraceAgent {
            log_path: self.log_path.clone(),
            log_fd: self.log_fd,
            scratch: self.scratch.deep_clone(),
            handle: self.handle.clone(),
        })
    }
}

/// Reads a pathname argument for display, with a fallback for bad
/// pointers.
fn path_arg(ctx: &mut SymCtx<'_, '_>, addr: u64) -> String {
    match ctx.read_path(addr) {
        Ok(p) => format!("\"{}\"", String::from_utf8_lossy(&p)),
        Err(_) => format!("{addr:#x}"),
    }
}

/// Formats one system call with per-call argument knowledge — the trace
/// agent's interface-proportional core.
pub fn format_call(ctx: &mut SymCtx<'_, '_>, nr: u32, args: &RawArgs) -> String {
    let Some(sys) = Sysno::from_u32(nr) else {
        return format!(
            "syscall({nr}, {:#x}, {:#x}, {:#x})",
            args[0], args[1], args[2]
        );
    };
    use Sysno::*;
    match sys {
        Open => format!(
            "open({}, {}, {:#o})",
            path_arg(ctx, args[0]),
            OpenFlags::new(args[1] as u32).describe(),
            args[2]
        ),
        Read => format!("read({}, {:#x}, {:#x})", args[0], args[1], args[2]),
        Write => format!("write({}, {:#x}, {:#x})", args[0], args[1], args[2]),
        Close => format!("close({})", args[0]),
        Exit => format!("exit({})", args[0]),
        Fork => "fork()".to_string(),
        Vfork => "vfork()".to_string(),
        Wait4 => format!(
            "wait4({}, {:#x}, {}, {:#x})",
            args[0] as i64, args[1], args[2], args[3]
        ),
        Link => format!(
            "link({}, {})",
            path_arg(ctx, args[0]),
            path_arg(ctx, args[1])
        ),
        Unlink => format!("unlink({})", path_arg(ctx, args[0])),
        Chdir => format!("chdir({})", path_arg(ctx, args[0])),
        Fchdir => format!("fchdir({})", args[0]),
        Mknod => format!(
            "mknod({}, {:#o}, {})",
            path_arg(ctx, args[0]),
            args[1],
            args[2]
        ),
        Chmod => format!("chmod({}, {:#o})", path_arg(ctx, args[0]), args[1]),
        Chown => format!(
            "chown({}, {}, {})",
            path_arg(ctx, args[0]),
            args[1] as i64,
            args[2] as i64
        ),
        Sbrk => format!("sbrk({})", args[0] as i64),
        Lseek => format!("lseek({}, {}, {})", args[0], args[1] as i64, args[2]),
        Getpid => "getpid()".to_string(),
        Getppid => "getppid()".to_string(),
        Getuid => "getuid()".to_string(),
        Geteuid => "geteuid()".to_string(),
        Getgid => "getgid()".to_string(),
        Getegid => "getegid()".to_string(),
        Setuid => format!("setuid({})", args[0]),
        Setgid => format!("setgid({})", args[0]),
        Setreuid => format!("setreuid({}, {})", args[0] as i64, args[1] as i64),
        Setregid => format!("setregid({}, {})", args[0] as i64, args[1] as i64),
        Access => format!("access({}, {})", path_arg(ctx, args[0]), args[1]),
        Sync => "sync()".to_string(),
        Kill => format!(
            "kill({}, {})",
            args[0] as i64,
            Signal::from_u32(args[1] as u32).map_or_else(|| args[1].to_string(), |s| s.to_string())
        ),
        Stat => format!("stat({}, {:#x})", path_arg(ctx, args[0]), args[1]),
        Lstat => format!("lstat({}, {:#x})", path_arg(ctx, args[0]), args[1]),
        Fstat => format!("fstat({}, {:#x})", args[0], args[1]),
        Dup => format!("dup({})", args[0]),
        Dup2 => format!("dup2({}, {})", args[0], args[1]),
        Pipe => "pipe()".to_string(),
        Sigaction => format!(
            "sigaction({}, {:#x}, {:#x})",
            Signal::from_u32(args[0] as u32).map_or_else(|| args[0].to_string(), |s| s.to_string()),
            args[1],
            args[2]
        ),
        Sigprocmask => format!("sigprocmask({}, {:#x})", args[0], args[1]),
        Sigpending => "sigpending()".to_string(),
        Sigsuspend => format!("sigsuspend({:#x})", args[0]),
        Sigreturn => format!("sigreturn({:#x})", args[0]),
        Ioctl => format!("ioctl({}, {:#x}, {:#x})", args[0], args[1], args[2]),
        Symlink => format!(
            "symlink({}, {})",
            path_arg(ctx, args[0]),
            path_arg(ctx, args[1])
        ),
        Readlink => format!(
            "readlink({}, {:#x}, {})",
            path_arg(ctx, args[0]),
            args[1],
            args[2]
        ),
        Execve => format!(
            "execve({}, {:#x}, {:#x})",
            path_arg(ctx, args[0]),
            args[1],
            args[2]
        ),
        Umask => format!("umask({:#o})", args[0]),
        Chroot => format!("chroot({})", path_arg(ctx, args[0])),
        Getpgrp => "getpgrp()".to_string(),
        Setpgid => format!("setpgid({}, {})", args[0], args[1]),
        Setsid => "setsid()".to_string(),
        Setitimer => format!("setitimer({}, {:#x}, {:#x})", args[0], args[1], args[2]),
        Getitimer => format!("getitimer({}, {:#x})", args[0], args[1]),
        Getdtablesize => "getdtablesize()".to_string(),
        Fcntl => format!("fcntl({}, {}, {:#x})", args[0], args[1], args[2]),
        Select => format!(
            "select({}, {:#x}, {:#x}, {:#x}, {:#x})",
            args[0], args[1], args[2], args[3], args[4]
        ),
        Fsync => format!("fsync({})", args[0]),
        Setpriority => format!("setpriority({}, {}, {})", args[0], args[1], args[2] as i64),
        Getpriority => format!("getpriority({}, {})", args[0], args[1]),
        Socket => format!("socket({}, {}, {})", args[0], args[1], args[2]),
        Socketpair => format!("socketpair({}, {}, {})", args[0], args[1], args[2]),
        Bind => format!("bind({}, {})", args[0], path_arg(ctx, args[1])),
        Connect => format!("connect({}, {})", args[0], path_arg(ctx, args[1])),
        Listen => format!("listen({}, {})", args[0], args[1]),
        Accept => format!("accept({}, {:#x}, {:#x})", args[0], args[1], args[2]),
        Gettimeofday => format!("gettimeofday({:#x}, {:#x})", args[0], args[1]),
        Settimeofday => format!("settimeofday({:#x}, {:#x})", args[0], args[1]),
        Adjtime => format!("adjtime({:#x}, {:#x})", args[0], args[1]),
        Getrusage => format!("getrusage({}, {:#x})", args[0], args[1]),
        Readv => format!("readv({}, {:#x}, {})", args[0], args[1], args[2]),
        Writev => format!("writev({}, {:#x}, {})", args[0], args[1], args[2]),
        Fchown => format!(
            "fchown({}, {}, {})",
            args[0], args[1] as i64, args[2] as i64
        ),
        Fchmod => format!("fchmod({}, {:#o})", args[0], args[1]),
        Rename => format!(
            "rename({}, {})",
            path_arg(ctx, args[0]),
            path_arg(ctx, args[1])
        ),
        Truncate => format!("truncate({}, {})", path_arg(ctx, args[0]), args[1]),
        Ftruncate => format!("ftruncate({}, {})", args[0], args[1]),
        Flock => format!("flock({}, {})", args[0], args[1]),
        Mkfifo => format!("mkfifo({}, {:#o})", path_arg(ctx, args[0]), args[1]),
        Mkdir => format!("mkdir({}, {:#o})", path_arg(ctx, args[0]), args[1]),
        Rmdir => format!("rmdir({})", path_arg(ctx, args[0])),
        Utimes => format!("utimes({}, {:#x})", path_arg(ctx, args[0]), args[1]),
        Getdirentries => format!(
            "getdirentries({}, {:#x}, {}, {:#x})",
            args[0], args[1], args[2], args[3]
        ),
    }
}

/// Formats a completed result: value, or `-1 ERRNO`.
#[must_use]
pub fn format_result(res: Result<[u64; 2], Errno>) -> String {
    match res {
        Ok([a, 0]) => format!("{a}"),
        Ok([a, b]) => format!("({a}, {b})"),
        Err(e) => format!("-1 {}", e.name()),
    }
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
