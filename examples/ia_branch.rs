//! Snapshot, branch, and time travel over the whole observable world.
//!
//! The persistent VFS makes `Fs::snapshot()` a few reference-count bumps
//! (BENCH_3 measures ~15 ns whether the tree holds 10 files or 10,000),
//! and `Kernel::snapshot()` captures everything a client could observe —
//! files, descriptors, processes, sockets, clock, console. This example
//! walks the three things that buys:
//!
//! 1. **Time travel**: capture mid-run, finish, rewind, finish again —
//!    the two futures are bit-identical.
//! 2. **Branching**: fork the world, run *different* futures in each,
//!    and show neither leaks into the other.
//! 3. **World capture under agents**: each process carries its agent
//!    chain, so `Kernel::snapshot` captures it too and an interposed run
//!    rewinds with its interposition.
//!
//! ```text
//! cargo run --example ia_branch
//! ```

use interposition_agents::agents::Timex;
use interposition_agents::interpose::{wrap_process, InterposedRouter};
use interposition_agents::kernel::{run, Kernel, KernelBuilder, RunLimits, RunOutcome};
use interposition_agents::vm::assemble;

/// Appends a line to /log/out, prints one byte to the console, repeats.
const WORKER: &str = r#"
    .data
    path: .asciz "/log/out"
    tick: .asciz "tick\n"
    dot:  .asciz "."
    .text
    main:
        li r5, 40           ; iterations
    loop:
        la r0, path
        li r1, 0x209        ; O_WRONLY|O_CREAT|O_APPEND
        li r2, 420
        sys open
        mov r3, r0
        mov r0, r3
        la r1, tick
        li r2, 5
        sys write
        mov r0, r3
        sys close
        li r0, 1
        la r1, dot
        li r2, 1
        sys write
        addi r5, r5, -1
        jnz r5, loop
        li r0, 0
        sys exit
"#;

fn fresh_world() -> (Kernel, InterposedRouter, u32) {
    let mut k = KernelBuilder::new().build();
    k.mkdir_p(b"/log").unwrap();
    let img = assemble(WORKER).unwrap();
    let pid = k.spawn_image(&img, &[b"worker"], b"worker");
    let mut router = InterposedRouter::new();
    // An agent in the chain proves world captures carry interposition:
    // the rewound run must re-interpose identically.
    wrap_process(&mut k, &mut router, pid, Timex::boxed(30), &[]);
    (k, router, pid)
}

fn run_all(k: &mut Kernel, router: &mut InterposedRouter) {
    assert_eq!(k.run_with(router), RunOutcome::AllExited);
}

fn main() {
    // --- 1. time travel -------------------------------------------------
    let (mut k, mut router, _) = fresh_world();
    // Run partway: a few hundred scheduler steps leaves the worker
    // mid-loop with real state everywhere (open-file history, console
    // bytes, clock).
    assert_eq!(
        run(&mut k, &mut router, RunLimits { max_steps: 300 }),
        RunOutcome::StepLimit
    );
    let snap = k.snapshot();
    println!(
        "captured world snapshot {} mid-run (console so far: {:?})",
        snap.id,
        k.console.output_string()
    );

    run_all(&mut k, &mut router);
    let first = k.observable();
    println!(
        "first future : console {:?}, /log/out {} bytes, clock {} ns",
        k.console.output_string(),
        k.read_file(b"/log/out").unwrap().len(),
        first.clock_ns
    );

    k.restore(&snap);
    run_all(&mut k, &mut router);
    assert_eq!(k.observable(), first, "replayed future must be identical");
    println!("second future: identical to the first, bit for bit");

    // --- 2. branching ---------------------------------------------------
    // Rewind once more and fork the world instead of replaying it.
    k.restore(&snap);
    let mut branch = k.branch();
    // The branch carries its own copies of the agent chains; any router
    // drives it.
    let mut branch_router = InterposedRouter::new();
    println!("\nbranched the world at snapshot {}", snap.id);

    // The branch gets a different history: scribble over the log before
    // letting it finish.
    branch
        .write_file(b"/log/out", b"rewritten in branch\n")
        .unwrap();
    run_all(&mut branch, &mut branch_router);
    // The trunk finishes untouched.
    run_all(&mut k, &mut router);

    let trunk_log = k.read_file(b"/log/out").unwrap();
    let branch_log = branch.read_file(b"/log/out").unwrap();
    println!("trunk  /log/out: {} bytes (all ticks)", trunk_log.len());
    println!(
        "branch /log/out: {} bytes (starts {:?})",
        branch_log.len(),
        String::from_utf8_lossy(&branch_log[..19])
    );
    assert_eq!(k.observable(), first, "branch never leaked into the trunk");
    assert_ne!(branch_log, trunk_log, "branch really diverged");
    println!("futures diverged; the trunk still equals the recorded one");

    // --- 3. the price ---------------------------------------------------
    // Capturing the VFS alone is O(1); prove it end to end by snapshotting
    // a tree three orders of magnitude larger.
    let t0 = std::time::Instant::now();
    let small = k.fs.snapshot();
    let small_ns = t0.elapsed().as_nanos();
    for i in 0..10_000 {
        k.write_file(format!("/log/f{i}").as_bytes(), b"x").unwrap();
    }
    let t1 = std::time::Instant::now();
    let big = k.fs.snapshot();
    let big_ns = t1.elapsed().as_nanos();
    println!(
        "\nFs::snapshot(): {small_ns} ns before, {big_ns} ns after adding 10k files \
         (persistent trie, structural sharing)"
    );
    drop((small, big));
}
