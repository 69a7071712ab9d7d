//! The fusion-hit histogram behind `reproduce --fusion`: which
//! superinstruction families representative workloads actually execute
//! on the default configuration, plus the exec-cache counters. CI uploads
//! the document as an artifact.

use ia_kernel::{FusionStats, KernelBuilder, RunOutcome};
use ia_obs::report::{Json, Layout};
use ia_workloads::micro::{self, MicroCall};

/// Runs the representative workloads on one default kernel — a compute
/// countdown loop, a `getpid()` trap loop, and a fork/exec storm of one
/// installed tool — and returns its fusion counters plus the exec-cache
/// `(hits, misses)`.
#[must_use]
pub fn profile() -> (FusionStats, (u64, u64)) {
    let mut k = KernelBuilder::new().build();
    micro::setup(&mut k);

    // Compute loop: one pair from every arithmetic fusion family per
    // iteration (ld+alu, cmp+branch, addi+branch).
    let compute = ia_vm::assemble(
        r#"
        .data
        cell: .space 8
        .text
        main:
            la  r9, cell
            li  r13, 20000
        loop:
            ld  r5, (r9)
            add r5, r5, r13
            seq r4, r13, r14
            jnz r4, done
            addi r13, r13, -1
            jnz r13, loop
        done:
            li r0, 0
            sys exit
        "#,
    )
    .expect("compute loop assembles");
    k.spawn_image(&compute, &[b"compute"], b"compute");
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);

    // Trap loop: li r7 + sys pairs.
    k.spawn_image(&micro::loop_image(MicroCall::Getpid, 2000), &[b"t"], b"t");
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);

    // Exec storm: fork/exec the same installed tool, exercising the
    // digest-keyed image cache.
    let tool = ia_vm::assemble("main: li r0, 0\n sys exit\n").expect("tool assembles");
    k.install_image(b"/bin/tool", &tool).expect("tool installs");
    let driver = ia_vm::assemble(
        r#"
        .data
        path: .asciz "/bin/tool"
        .text
        main:
            li  r12, 8
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
    .expect("driver assembles");
    k.spawn_image(&driver, &[b"driver"], b"driver");
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);

    (k.fusion_stats.clone(), k.exec_cache_stats())
}

/// Renders the per-family hit histogram and the exec-cache counters.
#[must_use]
pub fn render_json(stats: &FusionStats, (hits, misses): (u64, u64)) -> String {
    let histogram = stats
        .rows()
        .into_iter()
        .map(|(family, hits)| Json::inline().field("family", family).field("hits", hits));
    Json::document("report", "fusion-histogram")
        .field(
            "description",
            "superinstructions executed per fusion family on \
             representative workloads (compute loop, getpid loop, exec storm)",
        )
        .field("histogram", Json::array(Layout::Block, histogram))
        .field("superinsns_executed", stats.total())
        .field(
            "exec_cache",
            Json::inline().field("hits", hits).field("misses", misses),
        )
        .render()
}
