//! Router-surface tests: dynamic wrapping and unwrapping, chain
//! inspection, and interest recomputation — the `task_set_emulation`
//! management surface.

use ia_abi::{RawArgs, Sysno};
use ia_interpose::{Agent, InterestSet, InterposedRouter, SysCtx};
use ia_kernel::{Kernel, KernelBuilder, SysOutcome, SyscallRouter};

/// Minimal agent interested in exactly one call; tags results so its
/// presence is observable.
struct Tag(u64);

impl Agent for Tag {
    fn name(&self) -> &'static str {
        "tag"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::of(&[Sysno::Getpid])
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        match ctx.down(nr, args) {
            SysOutcome::Done(Ok([v, x])) => SysOutcome::Done(Ok([v + self.0, x])),
            other => other,
        }
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(Tag(self.0))
    }
}

fn world() -> (Kernel, u32) {
    let mut k = KernelBuilder::new().build();
    let img = ia_vm::assemble("main: halt\n").unwrap();
    let pid = k.spawn_image(&img, &[b"t"], b"t");
    (k, pid)
}

fn getpid_via(k: &mut Kernel, r: &mut InterposedRouter, pid: u32) -> u64 {
    match r.route(k, pid, Sysno::Getpid.number(), [0; 6], 0) {
        SysOutcome::Done(Ok([v, _])) => v,
        other => panic!("{other:?}"),
    }
}

#[test]
fn wrap_and_unwrap_at_runtime() {
    let (mut k, pid) = world();
    let mut r = InterposedRouter::new();
    let base = getpid_via(&mut k, &mut r, pid);
    assert_eq!(base, u64::from(pid));

    // Wrap: results shift.
    ia_interpose::push_agent(&mut k, pid, Box::new(Tag(100)));
    assert_eq!(getpid_via(&mut k, &mut r, pid), base + 100);
    assert_eq!(ia_interpose::chain_len(&k, pid), 1);
    assert_eq!(ia_interpose::agent(&k, pid, 0).unwrap().name(), "tag");

    // Stack another on top.
    ia_interpose::push_agent(&mut k, pid, Box::new(Tag(1000)));
    assert_eq!(getpid_via(&mut k, &mut r, pid), base + 1100);

    // Unwrap everything: behaviour reverts exactly.
    let removed = ia_interpose::remove_chain(&mut k, pid);
    assert_eq!(removed.len(), 2);
    assert_eq!(getpid_via(&mut k, &mut r, pid), base);
    assert!(!ia_interpose::has_chain(&k, pid));
}

#[test]
fn with_chain_recomputes_interest_after_mutation() {
    let (mut k, pid) = world();
    let mut r = InterposedRouter::new();
    ia_interpose::push_agent(&mut k, pid, Box::new(Tag(5)));
    assert_eq!(getpid_via(&mut k, &mut r, pid), u64::from(pid) + 5);

    // Drop the agent through with_chain: interest must be recomputed so
    // getpid stops being intercepted (and counted).
    ia_interpose::with_chain(&mut k, pid, |agents| agents.clear());
    let before = r.stats.intercepted;
    assert_eq!(getpid_via(&mut k, &mut r, pid), u64::from(pid));
    assert_eq!(r.stats.intercepted, before, "no interception after clear");
}

#[test]
fn per_process_chains_are_independent() {
    let mut k = KernelBuilder::new().build();
    let img = ia_vm::assemble("main: halt\n").unwrap();
    let p1 = k.spawn_image(&img, &[b"a"], b"a");
    let p2 = k.spawn_image(&img, &[b"b"], b"b");
    let mut r = InterposedRouter::new();
    ia_interpose::push_agent(&mut k, p1, Box::new(Tag(100)));

    assert_eq!(getpid_via(&mut k, &mut r, p1), u64::from(p1) + 100);
    assert_eq!(
        getpid_via(&mut k, &mut r, p2),
        u64::from(p2),
        "p2 unaffected"
    );
    assert_eq!(r.stats.unmanaged, 1);
}

#[test]
fn stats_distinguish_intercepted_passthrough_unmanaged() {
    let (mut k, pid) = world();
    let mut r = InterposedRouter::new();
    ia_interpose::push_agent(&mut k, pid, Box::new(Tag(1)));
    let _ = r.route(&mut k, pid, Sysno::Getpid.number(), [0; 6], 0); // intercepted
    let _ = r.route(&mut k, pid, Sysno::Getuid.number(), [0; 6], 0); // passthrough
    ia_interpose::remove_chain(&mut k, pid);
    let _ = r.route(&mut k, pid, Sysno::Getgid.number(), [0; 6], 0); // unmanaged
    assert_eq!(r.stats.intercepted, 1);
    assert_eq!(r.stats.passthrough, 1);
    assert_eq!(r.stats.unmanaged, 1);
}

/// An agent that swaps one signal for another at the upward path.
struct Swap;

impl Agent for Swap {
    fn name(&self) -> &'static str {
        "swap"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::NONE
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        ctx.down(nr, args)
    }
    fn signal_incoming(
        &mut self,
        _ctx: &mut SysCtx<'_>,
        sig: ia_abi::Signal,
    ) -> ia_interpose::SignalVerdict {
        if sig == ia_abi::Signal::SIGTERM {
            ia_interpose::SignalVerdict::Replace(ia_abi::Signal::SIGUSR2)
        } else {
            ia_interpose::SignalVerdict::Deliver
        }
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(Swap)
    }
}

#[test]
fn router_delivers_replacement_signals() {
    // The client installs a handler for SIGUSR2 only, then SIGTERMs
    // itself. Without the agent it dies; with the swap agent the handler
    // runs and it exits cleanly.
    let src = r#"
        .data
        act: .space 16
        .text
        main:
            jmp setup
        pad: nop
        handler:
            li r0, 42
            sys exit
        setup:
            li r3, 2
            la r1, act
            st r3, (r1)
            li r0, 31           ; SIGUSR2
            la r1, act
            li r2, 0
            sys sigaction
            sys getpid
            li r1, 15           ; SIGTERM
            sys kill
        spin:
            jmp spin
    "#;
    let img = ia_vm::assemble(src).unwrap();

    // Without the agent: killed by SIGTERM.
    let mut k = KernelBuilder::new().build();
    let pid = k.spawn_image(&img, &[b"t"], b"t");
    k.run_to_completion();
    assert_eq!(
        ia_abi::signal::WaitStatus::decode(k.exit_status(pid).unwrap()),
        Some(ia_abi::signal::WaitStatus::Signaled(
            ia_abi::Signal::SIGTERM
        ))
    );

    // With the agent: SIGTERM becomes SIGUSR2, the handler exits 42.
    let mut k = KernelBuilder::new().build();
    let pid = k.spawn_image(&img, &[b"t"], b"t");
    let mut r = InterposedRouter::new();
    ia_interpose::push_agent(&mut k, pid, Box::new(Swap));
    k.run_with(&mut r);
    assert_eq!(
        k.exit_status(pid),
        Some(ia_abi::signal::wait_status_exited(42))
    );
}
