//! The `flowguard` agent — dynamic information-flow labels derived from the
//! static `analyze::flow` result.
//!
//! The static analysis answers *whether* labelled bytes can reach a
//! write-shaped sink; this agent answers it again at runtime, precisely,
//! with per-inode (byte-range) and per-pipe labels threaded through the
//! kernel's read/write/dup/pipe/socketpair/fork paths — purely by
//! interposition, no VM or kernel changes. Labels are keyed by *object*
//! (inode number, pipe id), not descriptor, so `dup`/`dup2`/`fcntl`/
//! `close` need no interception at all: a read resolves the descriptor
//! through the live fd table at the moment it happens.
//!
//! Pay-per-use is preserved the way the paper demands: a statically-clean
//! image gets a [`FlowPolicy::clean`] policy whose interest set is empty —
//! zero per-call labelling cost, fully compatible with the PR-6 trap fast
//! path — while a dirty image pays only on the seven call numbers that can
//! move labelled bytes.
//!
//! Two modes: [`FlowMode::Record`] observes (producing the dynamic flow
//! trace the conformance oracle checks against the static result), and
//! [`FlowMode::Enforce`] blocks tainted writes to sockets and the console
//! (`EPERM`), confining labelled bytes to labelled files and guarded
//! pipes.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use ia_abi::{Errno, RawArgs, Sysno};
use ia_analyze::flow::{FlowAnalysis, FlowSpec};
use ia_interpose::{Agent, InterestSet, SysCtx};
use ia_kernel::{FileKind, Pid, SockState, SysOutcome};
use ia_toolkit::SymCtx;
use ia_vfs::{Ino, PipeId};

/// What the guard does about tainted sink writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowMode {
    /// Block tainted writes to unlabelled destinations (`EPERM`).
    Enforce,
    /// Observe and record only — the conformance oracle's shim.
    Record,
}

/// Runtime flow policy, normally derived from a [`FlowAnalysis`].
#[derive(Debug, Clone)]
pub struct FlowPolicy {
    /// The label specification (paths → label bits). Empty = clean image,
    /// zero interception.
    pub spec: FlowSpec,
    /// Labels whose escape the guard polices (usually every spec label).
    pub protected: u64,
    /// Enforce or record.
    pub mode: FlowMode,
}

impl FlowPolicy {
    /// The zero-cost policy for a statically-clean image: no labels, no
    /// interests, no per-call work.
    #[must_use]
    pub fn clean() -> FlowPolicy {
        FlowPolicy {
            spec: FlowSpec::new(),
            protected: 0,
            mode: FlowMode::Enforce,
        }
    }

    /// Derives the runtime policy from a static flow result: a provably
    /// clean image gets [`FlowPolicy::clean`] (pay-per-use: the guard
    /// registers no interests), anything else gets full labelling over the
    /// analysis' spec.
    #[must_use]
    pub fn from_flow(fa: &FlowAnalysis, mode: FlowMode) -> FlowPolicy {
        if fa.is_clean() {
            return FlowPolicy::clean();
        }
        FlowPolicy {
            spec: fa.spec.clone(),
            protected: fa.spec.all_mask(),
            mode,
        }
    }

    /// A recording policy over `spec` (labels everything, blocks nothing) —
    /// what the conformance shim uses.
    #[must_use]
    pub fn record(spec: FlowSpec) -> FlowPolicy {
        let protected = spec.all_mask();
        FlowPolicy {
            spec,
            protected,
            mode: FlowMode::Record,
        }
    }

    /// An enforcing policy over `spec`.
    #[must_use]
    pub fn enforce(spec: FlowSpec) -> FlowPolicy {
        let protected = spec.all_mask();
        FlowPolicy {
            spec,
            protected,
            mode: FlowMode::Enforce,
        }
    }
}

/// One completed write by a tainted process — the dynamic flow trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEvent {
    /// The writing process.
    pub pid: Pid,
    /// Instruction index of the `SYS` that performed the write.
    pub site: usize,
    /// The process taint (label mask) at the moment of the write.
    pub labels: u64,
    /// True if this process is (a descendant of) an `execve`'d image other
    /// than the analyzed one — the static relation does not cover it.
    pub exec_child: bool,
}

/// A blocked write (enforce mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowViolation {
    /// The offending process.
    pub pid: Pid,
    /// Instruction index of the `SYS`.
    pub site: usize,
    /// The taint it tried to exfiltrate.
    pub labels: u64,
    /// Where it tried to write (`"socket"`, `"console"`, `"file"`).
    pub target: &'static str,
}

/// Byte-range labels on one inode.
#[derive(Debug, Clone, Default)]
struct InoLabels {
    /// Labels covering the whole file (source files; leak-tainted files).
    whole: u64,
    /// Labelled byte ranges `[lo, hi)` from tainted writes at offsets.
    spans: Vec<(u64, u64, u64)>,
}

impl InoLabels {
    fn over(&self, lo: u64, hi: u64) -> u64 {
        let mut m = self.whole;
        for &(slo, shi, sm) in &self.spans {
            if slo < hi && lo < shi {
                m |= sm;
            }
        }
        m
    }

    fn any(&self) -> u64 {
        self.spans
            .iter()
            .fold(self.whole, |acc, &(_, _, m)| acc | m)
    }
}

/// Label state shared by every clone of the guard (parents, forked
/// children): object-keyed labels, the event trace, and violations.
#[derive(Debug, Default)]
struct Shared {
    inos: BTreeMap<Ino, InoLabels>,
    /// Per-pipe FIFO byte accounting: `(len, label-mask)` segments in
    /// write order, clean segments included so offsets line up.
    pipes: BTreeMap<PipeId, VecDeque<(u64, u64)>>,
    events: Vec<FlowEvent>,
    violations: Vec<FlowViolation>,
}

impl Shared {
    fn pipe_push(&mut self, id: PipeId, len: u64, mask: u64) {
        if len > 0 {
            self.pipes.entry(id).or_default().push_back((len, mask));
        }
    }

    /// Pops `len` bytes off the pipe's segment queue, returning the union
    /// of the popped segments' masks. Bytes nobody accounted for (written
    /// by an unguarded process) are clean.
    fn pipe_pop(&mut self, id: PipeId, mut len: u64) -> u64 {
        let Some(q) = self.pipes.get_mut(&id) else {
            return 0;
        };
        let mut mask = 0;
        while len > 0 {
            match q.front_mut() {
                None => break,
                Some(seg) => {
                    mask |= seg.1;
                    if seg.0 > len {
                        seg.0 -= len;
                        len = 0;
                    } else {
                        len -= seg.0;
                        q.pop_front();
                    }
                }
            }
        }
        mask
    }
}

/// Host-side view of the guard: the dynamic flow trace, violations, and
/// label seeding for test setups.
#[derive(Debug, Clone, Default)]
pub struct FlowHandle {
    shared: Arc<Mutex<Shared>>,
}

impl FlowHandle {
    /// The recorded dynamic flow trace (writes by tainted processes).
    #[must_use]
    pub fn events(&self) -> Vec<FlowEvent> {
        self.shared.lock().unwrap().events.clone()
    }

    /// Writes the guard blocked (enforce mode only).
    #[must_use]
    pub fn violations(&self) -> Vec<FlowViolation> {
        self.shared.lock().unwrap().violations.clone()
    }

    /// Pre-labels an inode, for setups where the labelled files exist
    /// before the client runs (the conformance harness labels its seed
    /// files by inode so relative-path opens resolve to them).
    pub fn seed_ino(&self, ino: Ino, labels: u64) {
        self.shared
            .lock()
            .unwrap()
            .inos
            .entry(ino)
            .or_default()
            .whole |= labels;
    }
}

/// The flow-guard agent. Clones (forked children) share the object label
/// store; the per-process taint accumulator is copied at fork, mirroring
/// the semantics of inherited memory.
#[derive(Debug, Clone)]
pub struct FlowGuard {
    /// The active policy.
    pub policy: FlowPolicy,
    shared: Arc<Mutex<Shared>>,
    /// Labels this process has read into its memory.
    taint: u64,
    /// Set once the process `execve`s a different image.
    exec_child: bool,
}

/// Factory for the agent/handle pair.
pub struct FlowGuardAgent;

impl FlowGuardAgent {
    /// Creates a flow guard under `policy`, returning the loadable agent
    /// and the host handle.
    #[must_use]
    #[allow(clippy::new_ret_no_self)] // factory: returns (agent, handle)
    pub fn new(policy: FlowPolicy) -> (Box<FlowGuard>, FlowHandle) {
        let handle = FlowHandle::default();
        (
            Box::new(FlowGuard {
                policy,
                shared: handle.shared.clone(),
                taint: 0,
                exec_child: false,
            }),
            handle,
        )
    }
}

impl FlowGuard {
    /// The client's `SYS` instruction index for the in-flight trap (the pc
    /// has already stepped past it).
    fn site(ctx: &SysCtx<'_>) -> usize {
        ctx.kernel
            .proc(ctx.pid)
            .map(|p| p.vm.pc.saturating_sub(1) as usize)
            .unwrap_or(usize::MAX)
    }

    /// Resolves a descriptor to its open-file kind and current offset.
    fn fd_kind(ctx: &SysCtx<'_>, fd: u64) -> Option<(FileKind, u64)> {
        let entry = ctx.kernel.proc(ctx.pid).ok()?.fds.get(fd).ok()?;
        let f = ctx.kernel.files.get(entry.file).ok()?;
        Some((f.kind, f.offset))
    }

    /// The pipe a connected socket reads from / writes to.
    fn sock_pipes(ctx: &SysCtx<'_>, id: ia_kernel::SockId) -> Option<(PipeId, PipeId)> {
        match ctx.kernel.sockets.get(id).ok()?.state {
            SockState::Connected { rx, tx } => Some((rx, tx)),
            _ => None,
        }
    }

    fn do_open(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        let path = SymCtx::new(ctx).read_path(args[0]).ok();
        let out = ctx.down(nr, args);
        if let (SysOutcome::Done(Ok([fd, _])), Some(path)) = (&out, path) {
            let mask = self.policy.spec.match_path(&path);
            if mask != 0 {
                if let Some((FileKind::Vnode(ino), _)) = Self::fd_kind(ctx, *fd) {
                    self.shared
                        .lock()
                        .unwrap()
                        .inos
                        .entry(ino)
                        .or_default()
                        .whole |= mask;
                }
            }
        }
        out
    }

    fn do_read(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        let out = ctx.down(nr, args);
        if let SysOutcome::Done(Ok([n, _])) = out {
            if n > 0 {
                match Self::fd_kind(ctx, args[0]) {
                    Some((FileKind::Vnode(ino), offset_after)) => {
                        let lo = offset_after.saturating_sub(n);
                        let sh = self.shared.lock().unwrap();
                        if let Some(l) = sh.inos.get(&ino) {
                            self.taint |= l.over(lo, offset_after);
                        }
                    }
                    Some((FileKind::PipeRead(id), _)) => {
                        self.taint |= self.shared.lock().unwrap().pipe_pop(id, n);
                    }
                    Some((FileKind::Socket(sid), _)) => {
                        if let Some((rx, _)) = Self::sock_pipes(ctx, sid) {
                            self.taint |= self.shared.lock().unwrap().pipe_pop(rx, n);
                        }
                    }
                    // Console and unknown objects carry no labels.
                    _ => {}
                }
            }
        }
        out
    }

    fn do_readlink(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        let path = SymCtx::new(ctx).read_path(args[0]).ok();
        let out = ctx.down(nr, args);
        if let (SysOutcome::Done(Ok(_)), Some(path)) = (&out, path) {
            self.taint |= self.policy.spec.match_path(&path);
        }
        out
    }

    fn do_write(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        let hot = self.taint & self.policy.protected;
        let site = Self::site(ctx);
        let kind = Self::fd_kind(ctx, args[0]);
        if hot != 0 && self.policy.mode == FlowMode::Enforce {
            let blocked = match kind {
                Some((FileKind::Socket(_), _)) => Some("socket"),
                Some((FileKind::Device(_), _)) => Some("console"),
                // A labelled file may absorb the labels it already carries;
                // anything else would launder them into unlabelled storage.
                Some((FileKind::Vnode(ino), _)) => {
                    let sh = self.shared.lock().unwrap();
                    let covered = sh.inos.get(&ino).map_or(0, InoLabels::any);
                    if hot & !covered != 0 {
                        Some("file")
                    } else {
                        None
                    }
                }
                // Pipes stay usable as conduits: the segment labels follow
                // the bytes and the guard re-checks at the far end.
                _ => None,
            };
            if let Some(target) = blocked {
                self.shared.lock().unwrap().violations.push(FlowViolation {
                    pid: ctx.pid,
                    site,
                    labels: hot,
                    target,
                });
                return SysOutcome::Done(Err(Errno::EPERM));
            }
        }
        let out = ctx.down(nr, args);
        if let SysOutcome::Done(Ok([n, _])) = out {
            if n > 0 {
                // Label whatever absorbed the bytes, clean segments
                // included for pipes (byte offsets must line up).
                match kind {
                    Some((FileKind::PipeWrite(id), _)) => {
                        self.shared.lock().unwrap().pipe_push(id, n, self.taint);
                    }
                    Some((FileKind::Socket(sid), _)) => {
                        if let Some((_, tx)) = Self::sock_pipes(ctx, sid) {
                            self.shared.lock().unwrap().pipe_push(tx, n, self.taint);
                        }
                    }
                    Some((FileKind::Vnode(ino), offset_before)) if self.taint != 0 => {
                        // Offsets: `kind` was sampled before the write, so
                        // offset_before..offset_before+n is the span —
                        // except O_APPEND, where `any()` readers still see
                        // the label via the span list.
                        self.shared
                            .lock()
                            .unwrap()
                            .inos
                            .entry(ino)
                            .or_default()
                            .spans
                            .push((offset_before, offset_before + n, self.taint));
                    }
                    _ => {}
                }
                if self.taint != 0 {
                    self.shared.lock().unwrap().events.push(FlowEvent {
                        pid: ctx.pid,
                        site,
                        labels: self.taint,
                        exec_child: self.exec_child,
                    });
                }
            }
        }
        out
    }
}

impl Agent for FlowGuard {
    fn name(&self) -> &'static str {
        "flowguard"
    }

    fn interests(&self) -> InterestSet {
        if self.policy.spec.is_empty() {
            // Statically-clean image: nothing to label, nothing to pay.
            InterestSet::NONE
        } else {
            InterestSet::of(&[
                Sysno::Open,
                Sysno::Read,
                Sysno::Readv,
                Sysno::Readlink,
                Sysno::Write,
                Sysno::Writev,
                Sysno::Execve,
            ])
        }
    }

    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        match Sysno::from_u32(nr) {
            Some(Sysno::Open) => self.do_open(ctx, nr, args),
            Some(Sysno::Read | Sysno::Readv) => self.do_read(ctx, nr, args),
            Some(Sysno::Readlink) => self.do_readlink(ctx, nr, args),
            Some(Sysno::Write | Sysno::Writev) => self.do_write(ctx, nr, args),
            Some(Sysno::Execve) => {
                let out = ctx.down(nr, args);
                if matches!(out, SysOutcome::NoReturn) {
                    // A different image runs now; its writes are no longer
                    // covered by the analyzed static relation. The taint
                    // itself survives — memory does.
                    self.exec_child = true;
                }
                out
            }
            _ => ctx.down(nr, args),
        }
    }

    fn clone_box(&self) -> Box<dyn Agent> {
        // Fork: the child inherits the parent's taint (its memory is a
        // copy) and shares the object label store.
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{Kernel, KernelBuilder, RunOutcome};

    fn spec() -> FlowSpec {
        FlowSpec::new().label("secret", &[b"/secret"])
    }

    fn run_guarded(src: &str, policy: FlowPolicy) -> (Kernel, FlowHandle) {
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        k.mkdir_p(b"/secret").unwrap();
        k.mkdir_p(b"/public").unwrap();
        k.write_file(b"/secret/key", b"hunter2!").unwrap();
        k.write_file(b"/public/note", b"noteval!").unwrap();
        let mut router = InterposedRouter::new();
        let (agent, handle) = FlowGuardAgent::new(policy);
        ia_interpose::spawn_with_agent(&mut k, agent, &[], &img, &[b"m"], b"m");
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        (k, handle)
    }

    const EXFIL: &str = r#"
        .data
        path: .asciz "/secret/key"
        buf:  .space 16
        .text
        main:
            la r0, path
            li r1, 0
            li r2, 0
            sys open
            mov r12, r0
            mov r0, r12
            la r1, buf
            li r2, 8
            sys read
            li r0, 1
            la r1, buf
            li r2, 8
            sys write           ; console = exfiltration sink
            mov r0, r1          ; errno of the write
            sys exit
    "#;

    #[test]
    fn enforce_blocks_tainted_console_write() {
        let (k, handle) = run_guarded(EXFIL, FlowPolicy::enforce(spec()));
        assert_eq!(k.console.output_string(), "", "nothing leaked");
        let v = handle.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].target, "console");
        assert_eq!(v[0].labels, 1);
        assert_eq!(
            k.exit_status(1),
            Some(ia_abi::signal::wait_status_exited(Errno::EPERM.code() as u8)),
            "client saw EPERM"
        );
    }

    #[test]
    fn record_mode_traces_without_blocking() {
        let (k, handle) = run_guarded(EXFIL, FlowPolicy::record(spec()));
        assert_eq!(
            k.console.output_string(),
            "hunter2!",
            "recording lets it through"
        );
        assert!(handle.violations().is_empty());
        let ev = handle.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].labels, 1);
        assert!(!ev[0].exec_child);
    }

    #[test]
    fn untainted_writes_pass_and_record_nothing() {
        let benign = EXFIL.replace("/secret/key", "/public/note");
        let (k, handle) = run_guarded(&benign, FlowPolicy::enforce(spec()));
        assert_eq!(
            k.console.output_string(),
            "noteval!",
            "benign write allowed"
        );
        assert!(handle.violations().is_empty());
        assert!(handle.events().is_empty());
    }

    #[test]
    fn clean_policy_registers_no_interests() {
        let (agent, _) = FlowGuardAgent::new(FlowPolicy::clean());
        assert!(agent.interests().is_empty(), "pay-per-use: zero cost");
    }

    #[test]
    fn labels_follow_bytes_through_a_pipe() {
        // parent: read secret, write into pipe; then read back from the
        // pipe and try the console — still blocked: the labels followed
        // the bytes through the pipe.
        let src = r#"
            .data
            path:  .asciz "/secret/key"
            buf:   .space 16
            .text
            main:
                sys pipe            ; r0 = read end, r2 = write end
                mov r10, r0
                mov r11, r2
                la r0, path
                li r1, 0
                li r2, 0
                sys open
                mov r12, r0
                mov r0, r12
                la r1, buf
                li r2, 8
                sys read
                mov r0, r11
                la r1, buf
                li r2, 8
                sys write           ; pipe write: allowed (conduit)
                mov r0, r10
                la r1, buf
                li r2, 8
                sys read
                li r0, 1
                la r1, buf
                li r2, 8
                sys write           ; console: blocked
                mov r0, r1
                sys exit
        "#;
        let (k, handle) = run_guarded(src, FlowPolicy::enforce(spec()));
        assert_eq!(k.console.output_string(), "");
        let v = handle.violations();
        assert_eq!(v.len(), 1, "only the console write violated: {v:?}");
        assert_eq!(v[0].target, "console");
    }

    #[test]
    fn writing_secret_back_into_the_labelled_file_is_allowed() {
        let src = r#"
            .data
            path: .asciz "/secret/key"
            buf:  .space 16
            .text
            main:
                la r0, path
                li r1, 0
                li r2, 0
                sys open
                mov r12, r0
                mov r0, r12
                la r1, buf
                li r2, 8
                sys read
                la r0, path
                li r1, 1            ; O_WRONLY
                li r2, 0
                sys open
                mov r11, r0
                mov r0, r11
                la r1, buf
                li r2, 8
                sys write           ; secret → its own labelled file: fine
                mov r0, r1
                sys exit
        "#;
        let (k, handle) = run_guarded(src, FlowPolicy::enforce(spec()));
        assert!(handle.violations().is_empty(), "{:?}", handle.violations());
        assert_eq!(
            k.exit_status(1),
            Some(ia_abi::signal::wait_status_exited(0))
        );
        // The write was recorded in the trace (it is a flow, just a legal one).
        assert_eq!(handle.events().len(), 1);
    }
}
