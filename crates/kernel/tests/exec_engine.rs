//! Integration tests for the exec pipeline's digest-keyed image cache and
//! the fused execution engine: cache reuse across `spawn`/`execve`, a
//! build-time gate vetoing both, and end-to-end bit-identity between the
//! plain and fused engines.

use std::sync::Arc;

use ia_abi::signal::WaitStatus;
use ia_abi::Errno;
use ia_kernel::{Engine, ExecCache, Kernel, KernelBuilder, RunOutcome};
use ia_vm::assemble;

fn boot() -> Kernel {
    KernelBuilder::new().build()
}

#[test]
fn spawning_the_same_file_twice_shares_the_decoded_image() {
    let mut k = boot();
    let img = assemble("main: li r0, 0\n sys exit\n").unwrap();
    k.install_image(b"/bin/tool", &img).unwrap();

    let pid1 = k.spawn(b"/bin/tool", &[b"tool"]).unwrap();
    let pid2 = k.spawn(b"/bin/tool", &[b"tool"]).unwrap();
    assert_eq!(k.exec_cache_stats(), (1, 1), "(hits, misses)");

    let (p1_code, p1_fused) = {
        let p = k.proc(pid1).unwrap();
        (Arc::clone(&p.code), Arc::clone(&p.fused))
    };
    let p2 = k.proc(pid2).unwrap();
    assert!(Arc::ptr_eq(&p1_code, &p2.code), "decoded code is shared");
    assert!(Arc::ptr_eq(&p1_fused, &p2.fused), "fused program is shared");
}

#[test]
fn different_bytes_do_not_share_cache_entries() {
    let mut k = boot();
    let a = assemble("main: li r0, 1\n sys exit\n").unwrap();
    let b = assemble("main: li r0, 2\n sys exit\n").unwrap();
    k.install_image(b"/bin/a", &a).unwrap();
    k.install_image(b"/bin/b", &b).unwrap();
    k.spawn(b"/bin/a", &[b"a"]).unwrap();
    k.spawn(b"/bin/b", &[b"b"]).unwrap();
    assert_eq!(k.exec_cache_stats(), (0, 2));
}

/// A gate given when the cache is built vetoes `spawn`, and its refusal is
/// cached like any other verdict: the second spawn is a hit.
#[test]
fn build_time_gate_vetoes_spawn_and_caches_the_refusal() {
    let mut k = KernelBuilder::new()
        .exec_cache(ExecCache::gated(|_| Err(Errno::ENOEXEC)))
        .build();
    let img = assemble("main: li r0, 0\n sys exit\n").unwrap();
    k.install_image(b"/bin/tool", &img).unwrap();
    assert_eq!(k.spawn(b"/bin/tool", &[b"tool"]), Err(Errno::ENOEXEC));
    assert_eq!(k.spawn(b"/bin/tool", &[b"tool"]), Err(Errno::ENOEXEC));
    assert_eq!(k.exec_cache_stats(), (1, 1), "(hits, misses)");
}

/// The same veto through `execve(2)` rather than the host `spawn` API: a
/// process that execs a gated image gets ENOEXEC back from the trap.
#[test]
fn execve_of_a_gated_image_fails() {
    let mut k = KernelBuilder::new()
        .exec_cache(ExecCache::gated(|_| Err(Errno::ENOEXEC)))
        .build();
    let target = assemble("main: li r0, 7\n sys exit\n").unwrap();
    k.install_image(b"/bin/target", &target).unwrap();

    // execve must fail: the program exits with the errno as its status.
    let launcher = assemble(
        r#"
        .data
        path: .asciz "/bin/target"
        .text
        main:
            la r0, path
            li r1, 0
            li r2, 0
            sys execve
            ; only reached on failure; errno is in r1
            mov r0, r1
            sys exit
        "#,
    )
    .unwrap();
    let pid = k.spawn_image(&launcher, &[b"l"], b"l");
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
    assert_eq!(
        WaitStatus::decode(k.exit_status(pid).unwrap()),
        Some(WaitStatus::Exited(Errno::ENOEXEC as u8))
    );
}

#[test]
fn exec_storm_hits_the_cache_once_per_unique_image() {
    let mut k = boot();
    let tool = assemble("main: li r0, 0\n sys exit\n").unwrap();
    k.install_image(b"/bin/tool", &tool).unwrap();
    // Fork/exec the same tool five times, waiting in between (make8-style
    // exec storm, minus make).
    let driver = assemble(
        r#"
        .data
        path: .asciz "/bin/tool"
        .text
        main:
            li  r12, 5
        loop:
            jz  r12, fin
            sys fork
            jz  r0, child
            li  r0, 0
            li  r1, 0
            li  r2, 0
            li  r3, 0
            sys wait4
            addi r12, r12, -1
            jmp loop
        child:
            la  r0, path
            li  r1, 0
            li  r2, 0
            sys execve
            li  r0, 99
            sys exit
        fin:
            li r0, 0
            sys exit
        "#,
    )
    .unwrap();
    k.spawn_image(&driver, &[b"driver"], b"driver");
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
    let (hits, misses) = k.exec_cache_stats();
    assert_eq!(misses, 1, "one decode+lint+fuse for five execs");
    assert_eq!(hits, 4);
}

/// A compute-heavy program whose hot loop is full of fusible pairs and
/// whose length is co-prime with the 100-instruction slice, so
/// superinstructions repeatedly straddle slice boundaries; an interval
/// timer interrupts it mid-flight. Plain and fused engines must agree on
/// every observable: console bytes, exit status, retired instructions,
/// and the virtual clock.
#[test]
fn fused_and_plain_engines_agree_end_to_end() {
    let src = r#"
        .data
        act: .space 16
        it:  .space 32
        msg: .asciz "T"
        .text
        main:
            jmp setup
        pad: nop
        handler:
            li r0, 1
            la r1, msg
            li r2, 1
            sys write
            mov r0, r1
            sys sigreturn
        setup:
            li r3, 2            ; address of `handler`
            la r1, act
            st r3, (r1)
            li r0, 14           ; SIGALRM
            la r1, act
            li r2, 0
            sys sigaction
            ; interval timer: first fire at 2 ms, reload every 2 ms
            la r1, it
            li r3, 2000
            st r3, 8(r1)        ; interval.usec
            st r3, 24(r1)       ; value.usec
            li r0, 0
            la r1, it
            li r2, 0
            sys setitimer
            ; hot loop: addi/jnz countdown with a cmp+branch inside —
            ; 7 instructions per iteration, co-prime with SLICE=100
            li r10, 40000
        loop:
            seq r4, r10, r11
            jnz r4, fin         ; never taken (r11 stays 0)
            addi r12, r12, 3
            addi r13, r13, -1
            nop
            addi r10, r10, -1
            jnz r10, loop
        fin:
            li r0, 0
            la r1, it
            st r0, 8(r1)
            st r0, 24(r1)
            li r2, 0
            sys setitimer       ; disarm
            li r0, 42
            sys exit
    "#;
    let img = assemble(src).unwrap();

    let run_with = |engine: Engine| {
        let mut k = boot();
        k.engine = engine;
        let pid = k.spawn_image(&img, &[b"hot"], b"hot");
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        (
            k.console.output_string(),
            k.exit_status(pid).unwrap(),
            k.total_insns,
            k.clock.now(),
            k.fusion_stats.total(),
        )
    };

    let (out_p, st_p, insns_p, clock_p, fused_p) = run_with(Engine::Plain);
    let (out_f, st_f, insns_f, clock_f, fused_f) = run_with(Engine::Fused);

    assert_eq!(out_p, out_f, "console output");
    assert_eq!(st_p, st_f, "exit status");
    assert_eq!(WaitStatus::decode(st_f), Some(WaitStatus::Exited(42)));
    assert_eq!(insns_p, insns_f, "retired instructions");
    assert_eq!(clock_p, clock_f, "virtual clock");
    assert_eq!(fused_p, 0, "plain engine never fuses");
    assert!(
        fused_f > 10_000,
        "hot loop runs on superinstructions (got {fused_f})"
    );
    assert!(!out_f.is_empty(), "the itimer actually fired");
}

/// One process mixing compute with `getpid` and `gettimeofday`, on the
/// default builder: a single run must both execute superinstructions and
/// answer every fast-answerable trap inside the VM loop, and still match
/// the reference (`Engine::Plain`, fast path off) on the full observable
/// state.
#[test]
fn default_run_fuses_and_answers_traps_in_one_loop() {
    let src = r#"
        .data
        tv: .space 16
        .text
        main:
            li r10, 300
        loop:
            li r11, 50
        inner:
            addi r11, r11, -1
            jnz r11, inner
            sys getpid
            add r12, r12, r0
            la r0, tv
            li r1, 0
            sys gettimeofday
            la r9, tv
            ld r4, 8(r9)
            add r13, r13, r4
            addi r10, r10, -1
            jnz r10, loop
            li r0, 1
            la r1, tv
            li r2, 16
            sys write
            mov r0, r13
            sys exit
    "#;
    let img = assemble(src).unwrap();
    let run = |builder: KernelBuilder| {
        let mut k = builder.build();
        k.spawn_image(&img, &[b"mix"], b"mix");
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        k
    };
    let k = run(KernelBuilder::new());
    let reference = run(KernelBuilder::new().engine(Engine::Plain).fast_path(false));

    assert!(
        k.fusion_stats.total() > 0,
        "compute ran on superinstructions"
    );
    assert_eq!(
        k.fast_stats.hits(),
        600,
        "every getpid and gettimeofday answered in-loop"
    );
    assert_eq!(k.fast_stats.misses(), 0);
    assert_eq!(k.observable(), reference.observable());
    assert_eq!(reference.fusion_stats.total(), 0);
    assert_eq!(reference.fast_stats.hits(), 0);
}

fn exit_code(k: &Kernel, pid: ia_kernel::Pid) -> Option<WaitStatus> {
    WaitStatus::decode(k.exit_status(pid).unwrap())
}

/// A binary rewritten in place — by the host, then by a guest `write(2)`
/// at the same path and the same length — misses the cache and runs the
/// new code: the file's cached digest went with the old bytes.
#[test]
fn a_binary_rewritten_in_place_misses_and_runs_the_new_code() {
    let mut k = boot();
    let tool = |code: u8| assemble(&format!("main: li r0, {code}\n sys exit\n")).unwrap();
    k.install_image(b"/bin/tool", &tool(1)).unwrap();
    let first = k.spawn(b"/bin/tool", &[b"tool"]).unwrap();
    k.write_file(b"/bin/tool", &tool(2).to_bytes()).unwrap();
    let second = k.spawn(b"/bin/tool", &[b"tool"]).unwrap();
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
    assert_eq!(exit_code(&k, first), Some(WaitStatus::Exited(1)));
    assert_eq!(exit_code(&k, second), Some(WaitStatus::Exited(2)));
    assert_eq!(k.exec_cache_stats(), (0, 2), "(hits, misses)");

    // A guest overwrites the file with the bytes of `tool(3)`, staged at
    // 0x8000, and execs it.
    let new = tool(3).to_bytes();
    assert_eq!(new.len(), tool(2).to_bytes().len(), "same length");
    let rewriter = assemble(&format!(
        r#"
        .data
        path: .asciz "/bin/tool"
        .text
        main:
            la r0, path
            li r1, 1        ; O_WRONLY, no O_TRUNC
            li r2, 0
            sys open
            mov r12, r0
            li r1, 0x8000
            li r2, {}
            sys write
            mov r0, r12
            sys close
            la r0, path
            li r1, 0
            li r2, 0
            sys execve
            li r0, 99
            sys exit
        "#,
        new.len()
    ))
    .unwrap();
    let pid = k.spawn_image(&rewriter, &[b"r"], b"r");
    k.proc_mut(pid)
        .unwrap()
        .mem
        .write_bytes(0x8000, &new)
        .unwrap();
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
    assert_eq!(exit_code(&k, pid), Some(WaitStatus::Exited(3)));
    assert_eq!(k.exec_cache_stats(), (0, 3), "(hits, misses)");
}

/// An identical copy of a binary at another path — written separately, so
/// it shares no chunk with the first — hits the first one's entry.
#[test]
fn an_identical_copy_at_another_path_hits() {
    let mut k = boot();
    let img = assemble("main: li r0, 5\n sys exit\n").unwrap();
    k.install_image(b"/bin/tool", &img).unwrap();
    k.mkdir_p(b"/usr/bin").unwrap();
    k.install_image(b"/usr/bin/copy", &img).unwrap();
    let a = k.spawn(b"/bin/tool", &[b"tool"]).unwrap();
    let b = k.spawn(b"/usr/bin/copy", &[b"copy"]).unwrap();
    assert_eq!(k.exec_cache_stats(), (1, 1), "(hits, misses)");
    assert!(Arc::ptr_eq(
        &k.proc(a).unwrap().code,
        &k.proc(b).unwrap().code
    ));
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
    assert_eq!(exit_code(&k, b), Some(WaitStatus::Exited(5)));
}

/// `spawn` and `execve` both set the binary's atime, as reading it does,
/// on a cache hit as on a miss, and leave its mtime alone.
#[test]
fn exec_sets_the_binarys_atime() {
    let mut k = boot();
    let img = assemble("main: li r0, 0\n sys exit\n").unwrap();
    let ino = k.install_image(b"/bin/tool", &img).unwrap();
    let installed = k.fs.stat(ino).unwrap();
    for _ in 0..2 {
        k.clock.advance_ns(3_000_000_000);
        k.spawn(b"/bin/tool", &[b"tool"]).unwrap();
        let st = k.fs.stat(ino).unwrap();
        assert_eq!(st.atime, k.clock.now(), "spawn read the file now");
        assert_eq!(st.mtime, installed.mtime);
    }
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);

    let launcher = assemble(
        r#"
        .data
        path: .asciz "/bin/tool"
        .text
        main:
            la r0, path
            li r1, 0
            li r2, 0
            sys execve
            li r0, 99
            sys exit
        "#,
    )
    .unwrap();
    k.clock.advance_ns(3_000_000_000);
    let before = k.fs.stat(ino).unwrap().atime;
    let pid = k.spawn_image(&launcher, &[b"l"], b"l");
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
    assert_eq!(exit_code(&k, pid), Some(WaitStatus::Exited(0)));
    let st = k.fs.stat(ino).unwrap();
    assert!(st.atime > before, "execve read the file");
    assert!(st.atime <= k.clock.now());
    assert_eq!(st.mtime, installed.mtime);
    assert_eq!(k.exec_cache_stats(), (2, 1), "(hits, misses)");
}
