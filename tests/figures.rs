//! Figures 1-1 through 1-4 as executable assertions: the four
//! configurations of kernel, agents and applications the paper diagrams.

use interposition_agents::agents::{Timex, TraceAgent, UnionAgent};
use interposition_agents::interpose::{spawn_with_agent, InterposedRouter};
use interposition_agents::kernel::{KernelBuilder, RunOutcome};
use interposition_agents::vm::assemble;

const HELLO: &str = r#"
    .data
    msg: .asciz "hi "
    .text
    main:
        li r0, 1
        la r1, msg
        li r2, 3
        sys write
        li r0, 0
        sys exit
"#;

/// Figure 1-1: the kernel provides every instance of the interface —
/// several applications, no agents.
#[test]
fn figure_1_1_kernel_provides_all_instances() {
    let mut k = KernelBuilder::new().build();
    let img = assemble(HELLO).unwrap();
    for name in [&b"csh"[..], b"emacs", b"mail", b"make"] {
        k.spawn_image(&img, &[name], name);
    }
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
    assert_eq!(k.console.output_string(), "hi hi hi hi ");
}

/// Figure 1-2: user code interposed between one unmodified application and
/// the kernel.
#[test]
fn figure_1_2_user_code_at_the_interface() {
    let mut k = KernelBuilder::new().build();
    let img = assemble(HELLO).unwrap();
    let mut router = InterposedRouter::new();
    let (agent, handle) = TraceAgent::with_log(b"/tmp/t.log");
    spawn_with_agent(&mut k, Box::new(agent), &[], &img, &[b"app"], b"app");
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert_eq!(k.console.output_string(), "hi ");
    assert!(handle.text().contains("write(1,"), "agent saw the call");
}

/// Figure 1-3: kernel *and* agents provide instances — some applications
/// run bare, others under (different) agents, all on one kernel.
#[test]
fn figure_1_3_kernel_and_agents_provide_instances() {
    let mut k = KernelBuilder::new().build();
    let img = assemble(HELLO).unwrap();
    let mut router = InterposedRouter::new();
    // csh and emacs talk straight to the kernel.
    k.spawn_image(&img, &[b"csh"], b"csh");
    k.spawn_image(&img, &[b"emacs"], b"emacs");
    // An untrusted binary runs in a restricted environment.
    let (sandbox, _) = interposition_agents::agents::SandboxAgent::new(
        interposition_agents::agents::SandboxPolicy::locked_down(),
    );
    spawn_with_agent(&mut k, sandbox, &[], &img, &[b"untrusted"], b"untrusted");
    // Another client under a time-shifting agent.
    spawn_with_agent(&mut k, Timex::boxed(3600), &[], &img, &[b"mail"], b"mail");
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert_eq!(k.console.output_string().matches("hi ").count(), 4);
}

/// Figure 1-4: agents can share state and provide multiple instances — one
/// union view serving two client processes at once.
#[test]
fn figure_1_4_agents_share_state_across_instances() {
    let reader = r#"
        .data
        p: .asciz "/view/shared.txt"
        buf: .space 32
        .text
        main:
            la r0, p
            li r1, 0
            li r2, 0
            sys open
            mov r3, r0
            mov r0, r3
            la r1, buf
            li r2, 32
            sys read
            mov r2, r0
            li r0, 1
            la r1, buf
            sys write
            li r0, 0
            sys exit
    "#;
    let mut k = KernelBuilder::new().build();
    k.mkdir_p(b"/a").unwrap();
    k.mkdir_p(b"/b").unwrap();
    k.write_file(b"/b/shared.txt", b"one-view ").unwrap();
    let img = assemble(reader).unwrap();
    let mut router = InterposedRouter::new();
    // Two independent clients of the same customized filesystem view.
    for name in [&b"mail"[..], b"make"] {
        spawn_with_agent(
            &mut k,
            UnionAgent::boxed(&[b"/view=/a:/b"]),
            &[],
            &img,
            &[name],
            name,
        );
    }
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert_eq!(k.console.output_string(), "one-view one-view ");
}
