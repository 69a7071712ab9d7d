//! Agent composition: "a multiplicity of simultaneously coexisting
//! implementations of the system call services, which in turn may utilize
//! one another" (§1.4). Agents stack; each uses the instance below it.

use interposition_agents::agents::{
    CryptAgent, SandboxAgent, SandboxPolicy, TimeSymbolic, Timex, TraceAgent, TxnAgent,
};
use interposition_agents::interpose::{wrap_process, InterposedRouter};
use interposition_agents::kernel::{KernelBuilder, RunOutcome};
use interposition_agents::vm::assemble;

const CLOCK_READER: &str = r#"
    .data
    tv: .space 16
    .text
    main:
        la  r0, tv
        li  r1, 0
        sys gettimeofday
        la  r1, tv
        ld  r0, (r1)
        li  r6, 255
        and r0, r0, r6
        sys exit
"#;

fn observed_sec(offsets: &[i64]) -> u8 {
    let mut k = KernelBuilder::new().build();
    let img = assemble(CLOCK_READER).unwrap();
    let pid = k.spawn_image(&img, &[b"c"], b"c");
    let mut router = InterposedRouter::new();
    for &off in offsets {
        wrap_process(&mut k, &mut router, pid, Timex::boxed(off), &[]);
    }
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    (k.exit_status(pid).unwrap() >> 8) as u8
}

#[test]
fn stacked_timex_offsets_compose_additively() {
    let base = observed_sec(&[]);
    assert_eq!(observed_sec(&[10]), base.wrapping_add(10));
    assert_eq!(observed_sec(&[10, 20]), base.wrapping_add(30));
    assert_eq!(observed_sec(&[100, -40, 7]), base.wrapping_add(67));
}

#[test]
fn trace_observes_what_timex_fabricates() {
    // trace above timex sees the raw call; timex below changes the result.
    // Both stay transparent to the client's control flow.
    let mut k = KernelBuilder::new().build();
    let img = assemble(CLOCK_READER).unwrap();
    let pid = k.spawn_image(&img, &[b"c"], b"c");
    let mut router = InterposedRouter::new();
    wrap_process(&mut k, &mut router, pid, Timex::boxed(1000), &[]);
    let (trace, handle) = TraceAgent::with_log(b"/tmp/t.log");
    wrap_process(&mut k, &mut router, pid, Box::new(trace), &[]);
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert!(handle.text().contains("gettimeofday"));
    assert_eq!(
        interposition_agents::interpose::chain_len(&k, pid),
        0,
        "chains cleaned after exit"
    );
}

#[test]
fn sandbox_under_txn_denies_before_any_shadowing() {
    // txn above, sandbox below: the branch-based transaction passes the
    // session's syscalls through untouched, so the sandbox's policy
    // (applied beneath) refuses the write-open before it ever reaches the
    // tree — committing keeps nothing because nothing was written.
    const MUTATOR: &str = r#"
        .data
        path: .asciz "/etc/protected.conf"
        t:    .asciz "overwritten"
        .text
        main:
            la r0, path
            li r1, 0x601
            li r2, 420
            sys open
            mov r3, r0
            mov r0, r3
            la r1, t
            li r2, 11
            sys write
            mov r0, r3
            sys close
            li r0, 0
            sys exit
    "#;
    let mut k = KernelBuilder::new().build();
    k.write_file(b"/etc/protected.conf", b"original").unwrap();
    let img = assemble(MUTATOR).unwrap();
    let pid = k.spawn_image(&img, &[b"m"], b"m");
    let mut router = InterposedRouter::new();
    let (sandbox, violations) = SandboxAgent::new(SandboxPolicy {
        readonly: vec![b"/etc".to_vec()],
        ..SandboxPolicy::default()
    });
    let (txn, txn_h) = TxnAgent::new();
    txn_h.set_commit();
    wrap_process(&mut k, &mut router, pid, sandbox, &[]);
    wrap_process(&mut k, &mut router, pid, txn, &[]);
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    // The write into /etc was refused below the transaction.
    assert_eq!(k.read_file(b"/etc/protected.conf").unwrap(), b"original");
    assert!(
        violations.violations().iter().any(|v| v.call == "open"),
        "sandbox caught the open beneath the txn: {:?}",
        violations.violations()
    );
}

#[test]
fn crypt_under_null_agents_still_round_trips() {
    const RW: &str = r#"
        .data
        path: .asciz "/vault/x"
        t:    .asciz "sensitive"
        buf:  .space 16
        .text
        main:
            la r0, path
            li r1, 0x601
            li r2, 420
            sys open
            mov r3, r0
            mov r0, r3
            la r1, t
            li r2, 9
            sys write
            mov r0, r3
            sys close
            la r0, path
            li r1, 0
            li r2, 0
            sys open
            mov r3, r0
            mov r0, r3
            la r1, buf
            li r2, 16
            sys read
            mov r2, r0
            li r0, 1
            la r1, buf
            sys write
            li r0, 0
            sys exit
    "#;
    let mut k = KernelBuilder::new().build();
    k.mkdir_p(b"/vault").unwrap();
    let img = assemble(RW).unwrap();
    let pid = k.spawn_image(&img, &[b"c"], b"c");
    let mut router = InterposedRouter::new();
    wrap_process(
        &mut k,
        &mut router,
        pid,
        CryptAgent::boxed(b"/vault", b"key"),
        &[],
    );
    wrap_process(&mut k, &mut router, pid, TimeSymbolic::boxed(), &[]);
    wrap_process(&mut k, &mut router, pid, TimeSymbolic::boxed(), &[]);
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert_eq!(k.console.output_string(), "sensitive");
    assert_ne!(k.read_file(b"/vault/x").unwrap(), b"sensitive");
}

#[test]
fn deep_chains_remain_correct() {
    let mut k = KernelBuilder::new().build();
    let img = assemble(CLOCK_READER).unwrap();
    let pid = k.spawn_image(&img, &[b"c"], b"c");
    let mut router = InterposedRouter::new();
    for _ in 0..8 {
        wrap_process(&mut k, &mut router, pid, TimeSymbolic::boxed(), &[]);
    }
    assert_eq!(interposition_agents::interpose::chain_len(&k, pid), 8);
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
}
