//! `KernelBuilder` equivalence: every builder knob must produce exactly
//! the kernel you would get by poking the corresponding post-build state,
//! and the knobs must actually take effect (not silently default).

use ia_abi::Errno;
use ia_kernel::{Engine, ExecCache, Kernel, KernelBuilder, RunOutcome, I486_25, VAX_6250};
use ia_vm::assemble;

const PROG: &str = r#"
    .data
    msg: .asciz "builder\n"
    path: .asciz "/tmp/b.txt"
    .text
    main:
        la  r0, path
        li  r1, 0x601
        li  r2, 420
        sys open
        mov r3, r0
        mov r0, r3
        la  r1, msg
        li  r2, 8
        sys write
        mov r0, r3
        sys close
        li  r0, 1
        la  r1, msg
        li  r2, 8
        sys write
        li  r0, 7
        sys exit
"#;

fn drive(mut k: Kernel) -> ia_kernel::Observable {
    let img = assemble(PROG).expect("assembles");
    k.spawn_image(&img, &[b"b"], b"b");
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
    k.observable()
}

/// Builder knobs vs post-build field pokes: identical observables.
#[test]
fn knobs_equal_post_build_pokes() {
    for engine in [Engine::Plain, Engine::Fused] {
        for fast_path in [false, true] {
            let built = KernelBuilder::new()
                .profile(I486_25)
                .engine(engine)
                .fast_path(fast_path)
                .build();

            let mut poked = KernelBuilder::new().build();
            poked.engine = engine;
            poked.fast_path = fast_path;

            assert_eq!(
                drive(built),
                drive(poked),
                "engine {engine:?} fast_path {fast_path} diverged"
            );
        }
    }
}

/// The profile knob must take effect: a slower machine burns more virtual
/// time for the same instruction stream.
#[test]
fn profile_knob_changes_virtual_time() {
    let fast = drive(KernelBuilder::new().profile(I486_25).build());
    let slow = drive(KernelBuilder::new().profile(VAX_6250).build());
    assert_eq!(fast.client.console, slow.client.console);
    assert_eq!(fast.client.exit_statuses, slow.client.exit_statuses);
    assert_ne!(fast.clock_ns, slow.clock_ns, "profile knob ignored");
}

/// The exec gate is fixed when the cache is made: every kernel built over a
/// gated shared cache — and a branch of one — refuses what the gate
/// refuses, and the refusal is computed once for all of them.
#[test]
fn every_kernel_on_a_gated_shared_cache_refuses_the_image() {
    let img = assemble(PROG).unwrap();
    let cache = ExecCache::gated(|_img| Err(Errno::EPERM));
    let mut a = KernelBuilder::new().exec_cache(cache.clone()).build();
    let mut b = KernelBuilder::new().exec_cache(cache.clone()).build();
    a.install_image(b"/bin/p", &img).unwrap();
    b.install_image(b"/bin/p", &img).unwrap();
    let mut branch = a.branch();
    for k in [&mut a, &mut b, &mut branch] {
        assert_eq!(k.spawn(b"/bin/p", &[b"p"]), Err(Errno::EPERM));
    }
    assert_eq!((cache.hits(), cache.misses()), (2, 1), "one cached verdict");

    let mut ungated = KernelBuilder::new().build();
    ungated.install_image(b"/bin/p", &img).unwrap();
    assert!(ungated.spawn(b"/bin/p", &[b"p"]).is_ok());
}

/// `base_vfs` really shares: two kernels built over the same base see the
/// same files, and their private writes do not leak into each other.
#[test]
fn base_vfs_is_shared_then_cow() {
    let mut donor = KernelBuilder::new().build();
    donor.write_file(b"/etc/fleet.conf", b"pool=16\n").unwrap();
    let base = donor.fs.clone();

    let mut a = KernelBuilder::new().base_vfs(&base).build();
    let mut b = KernelBuilder::new().base_vfs(&base).build();
    assert_eq!(a.read_file(b"/etc/fleet.conf").unwrap(), b"pool=16\n");
    assert_eq!(b.read_file(b"/etc/fleet.conf").unwrap(), b"pool=16\n");

    a.write_file(b"/tmp/only-a", b"x").unwrap();
    assert_eq!(
        b.read_file(b"/tmp/only-a"),
        Err(Errno::ENOENT),
        "COW leak across tenants"
    );
    assert_eq!(
        donor.fs.content_digest(),
        base.content_digest(),
        "donor base mutated by tenant write"
    );
}

/// `exec_cache` shares the handle; omitting it yields a private cache.
#[test]
fn exec_cache_knob_shares_the_handle() {
    let shared = ExecCache::new();
    let a = KernelBuilder::new().exec_cache(shared.clone()).build();
    let b = KernelBuilder::new().exec_cache(shared.clone()).build();
    let private = KernelBuilder::new().build();
    assert!(a.exec_cache_handle().shares_with(&b.exec_cache_handle()));
    assert!(a.exec_cache_handle().shares_with(&shared));
    assert!(!private.exec_cache_handle().shares_with(&shared));
}
