//! Directed regression for fast-path invalidation under mid-run chain
//! mutation.
//!
//! The interest union, the batchable-number set, and the in-loop answer
//! table are all compiled from the chain; every mutation must
//! invalidate them and flush any pending vectored upcall under the *old*
//! configuration. This test drives one client through four chain
//! configurations in a single run — bare, a batchable observer, a
//! non-batchable tap stacked on top, and back to the observer alone — and
//! asserts the complete observable state is bit-identical with the fast
//! path on, off, and on the reference (`Engine::Plain`, fast path off).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ia_abi::{RawArgs, Signal, Sysno};
use ia_interpose::{
    flush_pending, with_chain, wrap_process, Agent, BatchCall, InterestSet, InterposedRouter,
    SysCtx,
};
use ia_kernel::{
    run, Engine, Kernel, KernelBuilder, Observable, Pid, RunLimits, RunOutcome, SysOutcome,
};

/// Batchable full-coverage observer (counts calls seen, per-call or
/// vectored).
struct Watcher {
    calls: Arc<AtomicU64>,
    batches: Arc<AtomicU64>,
}

impl Agent for Watcher {
    fn name(&self) -> &'static str {
        "watcher"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::ALL
    }
    fn batch_interests(&self) -> InterestSet {
        InterestSet::ALL
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        self.calls.fetch_add(1, Ordering::Relaxed);
        ctx.down(nr, args)
    }
    fn syscall_batch(&mut self, _ctx: &mut SysCtx<'_>, _nr: u32, calls: &[BatchCall]) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.calls.fetch_add(calls.len() as u64, Ordering::Relaxed);
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(Watcher {
            calls: self.calls.clone(),
            batches: self.batches.clone(),
        })
    }
}

/// Non-batchable tap on `getpid` only: stacking it above the watcher must
/// kill vectored upcalls for getpid until it is removed again.
struct PidTap;

impl Agent for PidTap {
    fn name(&self) -> &'static str {
        "pid-tap"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::of(&[Sysno::Getpid])
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        ctx.down(nr, args)
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(PidTap)
    }
}

struct MutatedRun {
    obs: Observable,
    watcher_calls: u64,
    watcher_batches: u64,
    intercepted: u64,
    unmanaged: u64,
    fast_hits: u64,
}

fn run_mutating(fast: bool, engine: Engine) -> MutatedRun {
    // Loop counter in r10: syscall returns clobber r0..r2.
    let src = "
main:   li r10, 400
loop:   addi r10, r10, -1
        sys getpid
        jnz r10, loop
        li r0, 0
        sys exit
";
    let img = ia_vm::assemble(src).unwrap();
    let mut k = KernelBuilder::new().fast_path(fast).engine(engine).build();
    let pid = k.spawn_image(&img, &[b"inv"], b"inv");
    let mut router = InterposedRouter::new();
    let calls = Arc::new(AtomicU64::new(0));
    let batches = Arc::new(AtomicU64::new(0));

    let drive = |k: &mut Kernel, router: &mut InterposedRouter, max_steps: u64| {
        run(k, router, RunLimits { max_steps })
    };

    // Phase 1: bare — with the fast path on, getpid is answered in-loop.
    assert_eq!(drive(&mut k, &mut router, 150), RunOutcome::StepLimit);
    // Phase 2: install the batchable observer mid-run.
    wrap_process(
        &mut k,
        &mut router,
        pid,
        Box::new(Watcher {
            calls: calls.clone(),
            batches: batches.clone(),
        }),
        &[],
    );
    assert_eq!(drive(&mut k, &mut router, 150), RunOutcome::StepLimit);
    // Phase 3: stack a non-batchable getpid tap on top — the batchable
    // set must be recompiled without getpid.
    wrap_process(&mut k, &mut router, pid, Box::new(PidTap), &[]);
    assert_eq!(drive(&mut k, &mut router, 150), RunOutcome::StepLimit);
    // Phase 4: remove the tap mid-run. Any pending vector is delivered
    // under the old chain before it changes.
    flush_pending(&mut k, pid);
    let removed = with_chain(&mut k, pid, |agents| {
        assert_eq!(agents.len(), 2);
        agents.remove(0)
    })
    .expect("chain still installed");
    assert_eq!(removed.name(), "pid-tap");
    assert_eq!(drive(&mut k, &mut router, 5_000_000), RunOutcome::AllExited);

    MutatedRun {
        obs: k.observable(),
        watcher_calls: calls.load(Ordering::Relaxed),
        watcher_batches: batches.load(Ordering::Relaxed),
        intercepted: router.stats.intercepted,
        unmanaged: router.stats.unmanaged,
        fast_hits: k.fast_stats.hits(),
    }
}

struct SnapRun {
    obs: Observable,
    /// Watcher upcalls between the snapshot point and completion, first
    /// (pre-restore) leg.
    first_delta: u64,
    /// Same span replayed after `Kernel::restore` — must match exactly.
    second_delta: u64,
    watcher_batches: u64,
    intercepted: u64,
    fast_hits: u64,
}

/// Snapshot mid-run with vectored upcalls in flight, run to completion,
/// rewind, deliberately build a *fresh* pending batch, rewind again (the
/// live batch must be discarded and the captured one restored), and run
/// the same span a second time. Each future runs under a fresh router,
/// since a restore rewinds the kernel, not a router's host counters.
fn run_snapshot_restore(fast: bool, engine: Engine) -> SnapRun {
    let src = "
main:   li r10, 400
loop:   addi r10, r10, -1
        sys getpid
        jnz r10, loop
        li r0, 0
        sys exit
";
    let img = ia_vm::assemble(src).unwrap();
    let mut k = KernelBuilder::new().fast_path(fast).engine(engine).build();
    let pid = k.spawn_image(&img, &[b"snap"], b"snap");
    let mut router = InterposedRouter::new();
    let calls = Arc::new(AtomicU64::new(0));
    let batches = Arc::new(AtomicU64::new(0));
    wrap_process(
        &mut k,
        &mut router,
        pid,
        Box::new(Watcher {
            calls: calls.clone(),
            batches: batches.clone(),
        }),
        &[],
    );

    let drive = |k: &mut Kernel, router: &mut InterposedRouter, max_steps: u64| {
        run(k, router, RunLimits { max_steps })
    };

    // Run into the middle of the loop: with batching on, a partial
    // vectored upcall is pending right now.
    assert_eq!(drive(&mut k, &mut router, 150), RunOutcome::StepLimit);

    // Capture. The pending batch is captured with the chain, undelivered.
    let world = k.snapshot();
    let at_snap = calls.load(Ordering::Relaxed);

    // First future.
    let mut first_router = InterposedRouter::new();
    assert_eq!(
        drive(&mut k, &mut first_router, 5_000_000),
        RunOutcome::AllExited
    );
    let first = k.observable();
    let first_delta = calls.load(Ordering::Relaxed) - at_snap;

    // Rewind, then run a short stretch so a *new* pending batch forms
    // under the restored chain...
    k.restore(&world);
    assert_eq!(drive(&mut k, &mut router, 120), RunOutcome::StepLimit);
    // ...and rewind again: the live pending batch must be discarded and
    // the captured chain, compiled sets included, put back.
    k.restore(&world);
    let mid = calls.load(Ordering::Relaxed);

    // Second future: must be bit-identical to the first.
    let mut second_router = InterposedRouter::new();
    assert_eq!(
        drive(&mut k, &mut second_router, 5_000_000),
        RunOutcome::AllExited
    );
    assert_eq!(k.observable(), first, "replayed future diverged");
    assert_eq!(
        second_router.stats, first_router.stats,
        "router counters diverged"
    );
    assert!(k.check_quiescent().is_empty(), "{:?}", k.check_quiescent());

    SnapRun {
        obs: first,
        first_delta,
        second_delta: calls.load(Ordering::Relaxed) - mid,
        watcher_batches: batches.load(Ordering::Relaxed),
        intercepted: router.stats.intercepted + first_router.stats.intercepted,
        fast_hits: k.fast_stats.hits(),
    }
}

#[test]
fn snapshot_restore_invalidates_fast_state_identically() {
    let fast = run_snapshot_restore(true, Engine::Fused);
    let slow = run_snapshot_restore(false, Engine::Fused);
    let reference = run_snapshot_restore(false, Engine::Plain);

    assert!(fast.first_delta > 0, "snapshot taken after the loop ended");
    assert_eq!(
        fast.first_delta, fast.second_delta,
        "replay saw a different number of upcalls (stale batch leaked?)"
    );
    assert!(fast.watcher_batches > 0, "no vectored upcalls delivered");
    // The all-interest watcher leaves nothing to answer in the loop, so
    // the fast run has no hits to require; the slow run still has none.
    assert_eq!(slow.fast_hits, 0, "slow run must not answer in-loop");

    for (label, other) in [("fast off", &slow), ("reference", &reference)] {
        assert_eq!(fast.obs, other.obs, "observable state diverged vs {label}");
        assert_eq!(fast.first_delta, other.first_delta, "vs {label}");
        assert_eq!(fast.second_delta, other.second_delta, "vs {label}");
        assert_eq!(fast.watcher_batches, other.watcher_batches, "vs {label}");
        assert_eq!(fast.intercepted, other.intercepted, "vs {label}");
    }
}

#[test]
fn chain_mutation_invalidates_fast_state_identically() {
    let fast = run_mutating(true, Engine::Fused);
    let slow = run_mutating(false, Engine::Fused);
    let reference = run_mutating(false, Engine::Plain);

    // The run actually exercised every configuration.
    assert!(
        fast.watcher_calls > 200,
        "watcher saw {}",
        fast.watcher_calls
    );
    assert!(fast.watcher_batches > 0, "no vectored upcalls delivered");
    assert!(fast.intercepted > 0 && fast.unmanaged > 0);
    assert!(fast.fast_hits > 0, "fast run never answered in-loop");
    assert_eq!(slow.fast_hits, 0, "slow run must not answer in-loop");

    for (label, other) in [("fast off", &slow), ("reference", &reference)] {
        assert_eq!(fast.obs, other.obs, "observable state diverged vs {label}");
        assert_eq!(fast.watcher_calls, other.watcher_calls, "vs {label}");
        assert_eq!(fast.watcher_batches, other.watcher_batches, "vs {label}");
        assert_eq!(fast.intercepted, other.intercepted, "vs {label}");
        assert_eq!(fast.unmanaged, other.unmanaged, "vs {label}");
    }
}

/// An orphan is reaped at the settle pass after it exits, once its chain
/// has been torn down: the pending upcall is still delivered and the agent
/// teardown still charged, whether the process ends by `exit` (routed
/// through its chain) or by `halt` (never routed).
#[test]
fn a_reaped_orphans_chain_is_torn_down() {
    for end in ["li r0, 0\n        sys exit", "halt"] {
        let src = format!(
            "
main:   li r10, 5
loop:   addi r10, r10, -1
        sys getpid
        jnz r10, loop
        {end}
"
        );
        let img = ia_vm::assemble(&src).unwrap();
        let mut profile = ia_kernel::I486_25;
        profile.agent_exit_ns = 1 << 40;
        let mut k = KernelBuilder::new().profile(profile).build();
        let pid = k.spawn_image(&img, &[b"orphan"], b"orphan");
        let calls = Arc::new(AtomicU64::new(0));
        let batches = Arc::new(AtomicU64::new(0));
        let watcher = Watcher {
            calls: calls.clone(),
            batches: batches.clone(),
        };
        wrap_process(
            &mut k,
            &mut InterposedRouter::new(),
            pid,
            Box::new(watcher),
            &[],
        );
        assert_eq!(
            k.run_with(&mut InterposedRouter::new()),
            RunOutcome::AllExited
        );
        assert!(k.proc(pid).is_err(), "{end}: the orphan was reaped");
        assert_eq!(calls.load(Ordering::Relaxed), 5, "{end}: calls delivered");
        assert_eq!(batches.load(Ordering::Relaxed), 1, "{end}: one upcall");
        assert!(
            k.clock.elapsed_ns() >= 1 << 40,
            "{end}: agent teardown not charged"
        );
    }
}

/// Batchable full-coverage observer that logs `(pid, number, calls)` for
/// every vectored upcall it receives; its clones share the log.
#[derive(Clone, Default)]
struct Recorder {
    log: Arc<Mutex<Vec<(Pid, u32, usize)>>>,
}

impl Recorder {
    fn log(&self) -> Vec<(Pid, u32, usize)> {
        self.log.lock().unwrap().clone()
    }
}

impl Agent for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::ALL
    }
    fn batch_interests(&self) -> InterestSet {
        InterestSet::ALL
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        ctx.down(nr, args)
    }
    fn syscall_batch(&mut self, ctx: &mut SysCtx<'_>, nr: u32, calls: &[BatchCall]) {
        self.log.lock().unwrap().push((ctx.pid, nr, calls.len()));
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }
}

/// A kernel whose agent teardown costs 2^40 virtual ns, so the clock
/// counts teardowns.
fn teardown_counting_kernel() -> Kernel {
    let mut profile = ia_kernel::I486_25;
    profile.agent_exit_ns = 1 << 40;
    KernelBuilder::new().profile(profile).build()
}

/// A process killed by another process's `SIGKILL` is torn down like one
/// that exits: the child's five batched `getpid`s reach the agent and
/// both the child's and the parent's teardown is charged, once each.
#[test]
fn a_sigkilled_childs_chain_is_torn_down() {
    let src = "
main:   sys fork
        jz r0, child
        mov r8, r0
        li r10, 3000        ; let the child make its five calls
burn:   addi r10, r10, -1
        jnz r10, burn
        mov r0, r8
        li r1, 9            ; SIGKILL
        sys kill
        mov r0, r8
        li r1, 0
        li r2, 0
        li r3, 0
        sys wait4
        li r0, 0
        sys exit
child:  li r10, 5
loop:   addi r10, r10, -1
        sys getpid
        jnz r10, loop
spin:   jmp spin
";
    let img = ia_vm::assemble(src).unwrap();
    let mut k = teardown_counting_kernel();
    let parent = k.spawn_image(&img, &[b"killer"], b"killer");
    let recorder = Recorder::default();
    wrap_process(
        &mut k,
        &mut InterposedRouter::new(),
        parent,
        Box::new(recorder.clone()),
        &[],
    );
    assert_eq!(
        k.run_with(&mut InterposedRouter::new()),
        RunOutcome::AllExited
    );
    let child = parent + 1;
    assert_eq!(
        k.exit_status(child),
        Some(ia_abi::signal::wait_status_signaled(Signal::SIGKILL))
    );
    assert!(
        recorder.log().contains(&(child, Sysno::Getpid.number(), 5)),
        "the killed child's batch was not delivered: {:?}",
        recorder.log()
    );
    let teardowns = k.clock.elapsed_ns() >> 40;
    assert_eq!(teardowns, 2, "one teardown per process");
}

/// A group `SIGKILL` of two orphans, sent from the host, tears each down
/// once, in ascending pid order, before they are reaped.
#[test]
fn a_group_kill_of_orphans_tears_each_down_in_pid_order() {
    let src = "
main:   li r10, 3
loop:   addi r10, r10, -1
        sys getpid
        jnz r10, loop
spin:   jmp spin
";
    let img = ia_vm::assemble(src).unwrap();
    let mut k = teardown_counting_kernel();
    let recorder = Recorder::default();
    let a = k.spawn_image(&img, &[b"a"], b"a");
    let b = k.spawn_image(&img, &[b"b"], b"b");
    k.proc_mut(b).unwrap().pgrp = a;
    for pid in [a, b] {
        wrap_process(
            &mut k,
            &mut InterposedRouter::new(),
            pid,
            Box::new(recorder.clone()),
            &[],
        );
    }
    let mut router = InterposedRouter::new();
    assert_eq!(
        run(&mut k, &mut router, RunLimits { max_steps: 2_000 }),
        RunOutcome::StepLimit
    );
    assert!(recorder.log().is_empty(), "both batches still pending");
    let before = k.clock.elapsed_ns();
    assert_eq!(k.post_signal_pgrp(a, Signal::SIGKILL, 0), 2);
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    let getpid = Sysno::Getpid.number();
    assert_eq!(recorder.log(), [(a, getpid, 3), (b, getpid, 3)]);
    assert_eq!((k.clock.elapsed_ns() - before) >> 40, 2, "once each");
    assert!(k.proc(a).is_err() && k.proc(b).is_err(), "both reaped");
}

/// `kill(0, SIGKILL)` over a three-process group tears the group down in
/// ascending pid order, the same in every kernel, whatever order the
/// process table iterates in.
#[test]
fn a_group_kill_tears_down_in_the_same_order_in_every_kernel() {
    let src = "
main:   sys fork
        jz r0, child
        sys fork
        jz r0, child
        li r0, 0
        li r1, 9            ; SIGKILL, to the caller's own group
        sys kill
hang:   jmp hang
child:  sys getpid
        sys getpid
spin:   jmp spin
";
    let img = ia_vm::assemble(src).unwrap();
    let logs: Vec<Vec<(Pid, u32, usize)>> = (0..4)
        .map(|_| {
            let mut k = KernelBuilder::new().build();
            let pid = k.spawn_image(&img, &[b"g"], b"g");
            let recorder = Recorder::default();
            wrap_process(
                &mut k,
                &mut InterposedRouter::new(),
                pid,
                Box::new(recorder.clone()),
                &[],
            );
            assert_eq!(
                k.run_with(&mut InterposedRouter::new()),
                RunOutcome::AllExited
            );
            recorder.log()
        })
        .collect();
    assert!(logs.windows(2).all(|w| w[0] == w[1]), "{logs:?}");
    // The teardowns are the last three upcalls: the killer's pending
    // `kill`, then each child's pending `getpid`s.
    let order: Vec<Pid> = logs[0].iter().rev().take(3).rev().map(|e| e.0).collect();
    assert_eq!(order, [1, 2, 3], "{:?}", logs[0]);
}
