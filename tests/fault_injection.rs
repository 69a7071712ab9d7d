//! Failure injection through interposition: an agent that fabricates
//! errors is itself a legitimate use of the interface ("heuristic
//! evaluations of the target program's behavior", §1.4), and it doubles as
//! a robustness harness — the system must stay consistent no matter what
//! errors agents inject. The injector itself lives in `ia-conform`, where
//! the conformance sweeps run it against every interception point; these
//! tests pin down the fine-grained contract on hand-written clients.

use ia_conform::FaultInjector;
use interposition_agents::abi::{Errno, RawArgs, Sysno};
use interposition_agents::interpose::{Agent, InterestSet, InterposedRouter, SysCtx};
use interposition_agents::kernel::{KernelBuilder, RunOutcome, SysOutcome};
use interposition_agents::vm::assemble;

#[test]
fn client_observes_injected_read_errors_and_recovers() {
    // The client reads in a loop, counting EIO failures, and keeps going —
    // total successes + failures must equal attempts.
    let src = r#"
        .data
        path: .asciz "/tmp/data"
        buf:  .space 64
        .text
        main:
            la r0, path
            li r1, 0
            li r2, 0
            sys open
            mov r3, r0
            li r12, 9       ; attempts
            li r13, 0       ; failures
        loop:
            jz r12, done
            mov r0, r3
            li r1, 0
            li r2, 0
            sys lseek
            mov r0, r3
            la r1, buf
            li r2, 16
            sys read
            jz  r1, okk     ; errno == 0
            addi r13, r13, 1
        okk:
            addi r12, r12, -1
            jmp loop
        done:
            mov r0, r13
            sys exit
    "#;
    let mut k = KernelBuilder::new().build();
    k.write_file(b"/tmp/data", b"some file data here").unwrap();
    let img = assemble(src).unwrap();
    let pid = k.spawn_image(&img, &[b"r"], b"r");
    let (agent, injected) = FaultInjector::boxed(Sysno::Read, 3, Errno::EIO);
    let mut router = InterposedRouter::new();
    interposition_agents::interpose::push_agent(&mut k, pid, agent);
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    // Every 3rd of 9 reads fails: exactly 3 observed failures.
    assert_eq!(
        k.exit_status(pid),
        Some(ia_abi::signal::wait_status_exited(3))
    );
    assert_eq!(injected.load(std::sync::atomic::Ordering::Relaxed), 3);
}

#[test]
fn injected_open_failures_do_not_leak_descriptors() {
    let src = r#"
        .data
        path: .asciz "/tmp/data"
        .text
        main:
            li r12, 20
        loop:
            jz r12, done
            la r0, path
            li r1, 0
            li r2, 0
            sys open
            jnz r1, skip    ; injected failure: nothing to close
            sys close       ; fd still in r0
        skip:
            addi r12, r12, -1
            jmp loop
        done:
            li r0, 0
            sys exit
    "#;
    let mut k = KernelBuilder::new().build();
    k.write_file(b"/tmp/data", b"x").unwrap();
    let img = assemble(src).unwrap();
    let pid = k.spawn_image(&img, &[b"o"], b"o");
    let (agent, injected) = FaultInjector::boxed(Sysno::Open, 2, Errno::ENFILE);
    let mut router = InterposedRouter::new();
    interposition_agents::interpose::push_agent(&mut k, pid, agent);
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert_eq!(injected.load(std::sync::atomic::Ordering::Relaxed), 10);
    // After exit every open file is released: only the shared tty remains
    // from other bookkeeping (none here since the process exited).
    assert_eq!(k.files.live(), 0, "no leaked open files");
}

#[test]
fn injecting_on_exit_cannot_keep_a_process_alive() {
    // Even if an agent swallows exit and fabricates an error, the paper's
    // contract says agents *may* do this — the client then keeps running.
    // When the client retries exit and the agent relents, the process dies.
    struct ExitFlake {
        refusals: u64,
    }
    impl Agent for ExitFlake {
        fn name(&self) -> &'static str {
            "exit-flake"
        }
        fn interests(&self) -> InterestSet {
            InterestSet::of(&[Sysno::Exit])
        }
        fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
            if self.refusals > 0 {
                self.refusals -= 1;
                return SysOutcome::Done(Err(Errno::EAGAIN));
            }
            ctx.down(nr, args)
        }
        fn clone_box(&self) -> Box<dyn Agent> {
            Box::new(ExitFlake {
                refusals: self.refusals,
            })
        }
    }

    // exit in a loop: retried until it finally sticks.
    let src = r#"
        main:
        again:
            li r0, 0        ; a failed exit clobbers r0 with -1
            sys exit
            jmp again
    "#;
    let mut k = KernelBuilder::new().build();
    let img = assemble(src).unwrap();
    let pid = k.spawn_image(&img, &[b"e"], b"e");
    let mut router = InterposedRouter::new();
    interposition_agents::interpose::push_agent(&mut k, pid, Box::new(ExitFlake { refusals: 4 }));
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert_eq!(k.exit_status(pid), Some(0));
}
