//! Property test: snapshot/branch/restore interleaved with random world
//! mutation.
//!
//! Two properties, over many seeds:
//!
//! 1. **Faithful restore** — restoring a [`KernelSnapshot`] brings the
//!    kernel's full [`Observable`] back bit-identically to what it was at
//!    capture time, no matter what ran in between (including restores of
//!    *other* snapshots: captures are immutable values, not cursors).
//! 2. **Branch isolation** — mutations in a branched world never leak
//!    into the trunk or into sibling branches, and the trunk finishes
//!    exactly as an unbranched run would.
//! 3. **Inert capture** — taking snapshots of a run with a vectored upcall
//!    pending changes nothing about it, and a restore from such a capture
//!    replays the same end state.

use ia_agents::PassThrough;
use ia_conform::{sample, OpSet, Program};
use ia_interpose::{wrap_process, InterposedRouter};
use ia_kernel::{run, Kernel, KernelBuilder, KernelSnapshot, Observable, RunLimits, RunOutcome};
use ia_prng::Prng;

fn world(seed: u64) -> (Kernel, InterposedRouter) {
    let mut k = KernelBuilder::new().build();
    Program::setup(&mut k);
    let program = sample(seed, 10, OpSet::ALL);
    k.spawn_image(&program.compile(), &[b"prop"], b"prop");
    (k, InterposedRouter::new())
}

#[test]
fn restored_observable_is_bit_identical_to_capture_time() {
    for seed in 0..25u64 {
        let mut rng = Prng::new(seed);
        let (mut k, mut router) = world(seed);
        let mut snaps: Vec<(KernelSnapshot, Observable)> = Vec::new();
        for step in 0..60 {
            match rng.range_usize(0, 6) {
                0 => {
                    let path = format!("/home/p{}", rng.range_usize(0, 8));
                    let body = format!("s{seed}-t{step}");
                    k.write_file(path.as_bytes(), body.as_bytes()).unwrap();
                }
                1 => {
                    let dir = format!("/home/d{}", rng.range_usize(0, 4));
                    k.mkdir_p(dir.as_bytes()).unwrap();
                }
                2 => {
                    // Another process joins the world mid-history.
                    let p = sample(seed * 1000 + step, 4, OpSet::FS_CLIENT);
                    k.spawn_image(&p.compile(), &[b"extra"], b"extra");
                }
                3 => {
                    let steps = rng.range_usize(1, 300) as u64;
                    run(&mut k, &mut router, RunLimits { max_steps: steps });
                }
                4 => {
                    let obs = k.observable();
                    snaps.push((k.snapshot(), obs));
                }
                _ if !snaps.is_empty() => {
                    let i = rng.range_usize(0, snaps.len());
                    k.restore(&snaps[i].0);
                    assert_eq!(
                        k.observable(),
                        snaps[i].1,
                        "seed {seed} step {step}: restore of snapshot {i} diverged"
                    );
                }
                _ => {}
            }
        }
        // Old captures must still restore faithfully after everything
        // above (immutability of captures under later restores/mutation).
        for (i, (snap, obs)) in snaps.iter().enumerate() {
            k.restore(snap);
            assert_eq!(
                &k.observable(),
                obs,
                "seed {seed}: final re-restore of snapshot {i} diverged"
            );
        }
    }
}

#[test]
fn branch_mutations_never_leak_into_trunk_or_siblings() {
    for seed in 0..15u64 {
        let (mut k, mut router) = world(seed);
        // Advance the trunk into the middle of real execution.
        run(&mut k, &mut router, RunLimits { max_steps: 200 });
        let at_branch = k.observable();

        let mut b1 = k.branch();
        let mut b2 = k.branch();
        assert_eq!(b1.observable(), at_branch, "branch equals trunk at fork");
        assert_eq!(b2.observable(), at_branch, "branch equals trunk at fork");

        // Divergent futures: each branch gets its own marker file and a
        // different amount of further execution.
        b1.write_file(b"/home/only-in-b1", b"one").unwrap();
        let mut r1 = InterposedRouter::new();
        run(&mut b1, &mut r1, RunLimits { max_steps: 500 });
        b2.write_file(b"/home/only-in-b2", b"two").unwrap();
        let mut r2 = InterposedRouter::new();
        run(&mut b2, &mut r2, RunLimits { max_steps: 50 });

        // Trunk saw none of it.
        assert_eq!(
            k.observable(),
            at_branch,
            "seed {seed}: branch mutation leaked into the trunk"
        );
        // Siblings saw only their own marker.
        assert!(b1.read_file(b"/home/only-in-b1").is_ok());
        assert!(b1.read_file(b"/home/only-in-b2").is_err());
        assert!(b2.read_file(b"/home/only-in-b2").is_ok());
        assert!(b2.read_file(b"/home/only-in-b1").is_err());

        // And the trunk's future is what it would have been unbranched:
        // compare against a control world that never forked.
        let (mut control, mut control_router) = world(seed);
        run(
            &mut control,
            &mut control_router,
            RunLimits { max_steps: 200 },
        );
        k.run_with(&mut router);
        control.run_with(&mut control_router);
        assert_eq!(
            k.observable(),
            control.observable(),
            "seed {seed}: branching perturbed the trunk's future"
        );
    }
}

/// 120 `getpid`s under [`PassThrough`], which takes every call as a
/// vectored upcall: 120 calls in 4 batches of at most 32.
fn getpid_loop() -> (Kernel, PassThrough) {
    let src = "
main:   li r10, 120
loop:   addi r10, r10, -1
        sys getpid
        jnz r10, loop
        li r0, 0
        sys exit
";
    let img = ia_vm::assemble(src).unwrap();
    let mut k = KernelBuilder::new().build();
    let pid = k.spawn_image(&img, &[b"loop"], b"loop");
    let agent = PassThrough::boxed();
    let probe = agent.probe();
    wrap_process(&mut k, &mut InterposedRouter::new(), pid, agent, &[]);
    (k, probe)
}

/// A capture, the agent's counters and the kernel's syscall count when it
/// was taken.
type Capture = (KernelSnapshot, (u64, u64), u64);

/// Runs `k` to the end in `every`-step chunks, snapshotting it at every
/// chunk boundary.
fn run_capturing(k: &mut Kernel, probe: &PassThrough, every: u64) -> Vec<Capture> {
    let mut captures = Vec::new();
    let mut router = InterposedRouter::new();
    while run(k, &mut router, RunLimits { max_steps: every }) == RunOutcome::StepLimit {
        captures.push((k.snapshot(), probe.counters(), k.total_syscalls));
    }
    captures
}

#[test]
fn snapshots_taken_mid_batch_change_nothing() {
    let (mut straight, probe) = getpid_loop();
    assert_eq!(
        straight.run_with(&mut InterposedRouter::new()),
        RunOutcome::AllExited
    );
    let end = straight.observable();
    assert_eq!(probe.counters(), (4, 120), "4 vectored upcalls, 120 calls");

    for every in [7, 13, 50] {
        let (mut k, probe) = getpid_loop();
        let captures = run_capturing(&mut k, &probe, every);
        assert_eq!(
            k.observable(),
            end,
            "every {every}: snapshots changed the run"
        );
        assert_eq!(probe.counters(), (4, 120), "every {every}: upcalls changed");

        // A capture holding a pending batch: the kernel had executed more
        // calls than the agent had observed.
        let (snap, at_capture, syscalls) = captures
            .iter()
            .find(|(_, (_, calls), syscalls)| syscalls > calls && *calls > 0)
            .expect("a capture taken mid-batch");
        assert!(*syscalls > at_capture.1);
        k.restore(snap);
        let before = probe.counters();
        assert_eq!(
            k.run_with(&mut InterposedRouter::new()),
            RunOutcome::AllExited
        );
        assert_eq!(k.observable(), end, "every {every}: replay diverged");
        let after = probe.counters();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (4 - at_capture.0, 120 - at_capture.1),
            "every {every}: the replay delivered a different set of upcalls"
        );
    }
}
