//! Agents across `fork` and `execve`: the chain follows the process tree
//! (as it must, since on Mach the agent lived in the forked address
//! space), and agent semantics hold for children and exec'd images.

use ia_agents::{CryptAgent, TimeSymbolic, Timex, TraceAgent, UnionAgent};
use ia_interpose::{spawn_with_agent, wrap_process, InterposedRouter};
use ia_kernel::{KernelBuilder, RunOutcome};
use ia_vm::assemble;

#[test]
fn timex_shift_is_inherited_by_children() {
    // Parent and child both read the clock; both exit with (sec & 0xff).
    // Under timex both see the same shifted time.
    let src = r#"
        .data
        tv: .space 16
        .text
        main:
            sys fork
            jz r0, child
            li r0, 0
            li r1, 0
            li r2, 0
            li r3, 0
            sys wait4
        child:
            la r0, tv
            li r1, 0
            sys gettimeofday
            la r1, tv
            ld r0, (r1)
            li r6, 255
            and r0, r0, r6
            sys exit
    "#;
    let run = |offset: Option<i64>| -> (u8, u8) {
        let mut k = KernelBuilder::new().build();
        let img = assemble(src).unwrap();
        let parent = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        if let Some(off) = offset {
            wrap_process(&mut k, &mut router, parent, Timex::boxed(off), &[]);
        }
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        let p = (k.exit_status(parent).unwrap() >> 8) as u8;
        let c = (k.exit_status(parent + 1).unwrap() >> 8) as u8;
        (p, c)
    };
    let (p0, c0) = run(None);
    let (p1, c1) = run(Some(100));
    assert_eq!(p1, p0.wrapping_add(100), "parent shifted");
    assert_eq!(c1, c0.wrapping_add(100), "forked child inherited the shift");
}

#[test]
fn trace_follows_the_whole_process_tree_across_exec() {
    let mut k = KernelBuilder::new().build();
    let tool = assemble(
        r#"
        .data
        p: .asciz "/tmp/from-tool"
        .text
        main:
            la r0, p
            li r1, 0x601
            li r2, 420
            sys open
            sys close
            li r0, 0
            sys exit
        "#,
    )
    .unwrap();
    k.install_image(b"/bin/tool", &tool).unwrap();
    let parent = assemble(
        r#"
        .data
        path: .asciz "/bin/tool"
        .text
        main:
            sys fork
            jz r0, child
            li r0, 0
            li r1, 0
            li r2, 0
            li r3, 0
            sys wait4
            li r0, 0
            sys exit
        child:
            la r0, path
            li r1, 0
            li r2, 0
            sys execve
            li r0, 1
            sys exit
        "#,
    )
    .unwrap();
    let mut router = InterposedRouter::new();
    let (agent, handle) = TraceAgent::with_log(b"/tmp/tree.trace");
    spawn_with_agent(&mut k, Box::new(agent), &[], &parent, &[b"p"], b"p");
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    let text = handle.text();
    assert!(text.contains("fork()"), "{text}");
    assert!(text.contains(r#"execve("/bin/tool""#), "{text}");
    assert!(
        text.contains(r#"open("/tmp/from-tool""#),
        "the exec'd image's calls are still traced:\n{text}"
    );
}

#[test]
fn crypt_state_survives_fork_without_corruption() {
    // Parent writes the first half, forked child appends the second half;
    // the whole file deciphers correctly afterwards.
    let src = r#"
        .data
        path: .asciz "/vault/shared"
        a: .asciz "first-half|"
        b: .asciz "second-half"
        .text
        main:
            la r0, path
            li r1, 0x601
            li r2, 420
            sys open
            mov r10, r0
            mov r0, r10
            la r1, a
            li r2, 11
            sys write
            sys fork
            jz r0, child
            li r0, 0
            li r1, 0
            li r2, 0
            li r3, 0
            sys wait4
            mov r0, r10
            sys close
            li r0, 0
            sys exit
        child:
            mov r0, r10
            la r1, b
            li r2, 11
            sys write
            li r0, 0
            sys exit
    "#;
    let mut k = KernelBuilder::new().build();
    k.mkdir_p(b"/vault").unwrap();
    let img = assemble(src).unwrap();
    let pid = k.spawn_image(&img, &[b"c"], b"c");
    let mut router = InterposedRouter::new();
    ia_interpose::push_agent(&mut k, pid, CryptAgent::boxed(b"/vault", b"kk"));
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    let mut at_rest = k.read_file(b"/vault/shared").unwrap();
    assert_eq!(at_rest.len(), 22);
    ia_agents::crypt::apply_keystream(b"kk", 0, &mut at_rest);
    assert_eq!(at_rest, b"first-half|second-half");
}

#[test]
fn union_view_holds_for_exece_binaries_found_through_the_view() {
    // The binary itself is found through the union: exec("/view/tool").
    let mut k = KernelBuilder::new().build();
    k.mkdir_p(b"/bin2").unwrap();
    let tool = assemble(
        r#"
        .data
        m: .asciz "ran-via-view"
        .text
        main:
            li r0, 1
            la r1, m
            li r2, 12
            sys write
            li r0, 0
            sys exit
        "#,
    )
    .unwrap();
    k.install_image(b"/bin2/tool", &tool).unwrap();
    let launcher = assemble(
        r#"
        .data
        path: .asciz "/view/tool"
        .text
        main:
            la r0, path
            li r1, 0
            li r2, 0
            sys execve
            li r0, 9
            sys exit
        "#,
    )
    .unwrap();
    let mut router = InterposedRouter::new();
    let pid = spawn_with_agent(
        &mut k,
        UnionAgent::boxed(&[b"/view=/bin:/bin2"]),
        &[],
        &launcher,
        &[b"l"],
        b"l",
    );
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert_eq!(k.console.output_string(), "ran-via-view");
    assert_eq!(k.exit_status(pid), Some(0));
}

#[test]
fn deep_fork_trees_keep_one_chain_per_process() {
    // Three generations; every process carries (and drops) its own chain.
    let src = r#"
        main:
            sys fork
            jz r0, gen2
        reap:
            li r0, 0
            li r1, 0
            li r2, 0
            li r3, 0
            sys wait4
            li r0, 0
            sys exit
        gen2:
            sys fork
            jz r0, gen3
            jmp reap
        gen3:
            li r0, 0
            sys exit
    "#;
    let mut k = KernelBuilder::new().build();
    let img = assemble(src).unwrap();
    let pid = k.spawn_image(&img, &[b"g"], b"g");
    let mut router = InterposedRouter::new();
    ia_interpose::push_agent(&mut k, pid, TimeSymbolic::boxed());
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert_eq!(router.stats.chains_forked, 2, "one clone per fork");
    for p in [pid, pid + 1, pid + 2] {
        assert!(!ia_interpose::has_chain(&k, p), "chain for {p} cleaned up");
    }
}
