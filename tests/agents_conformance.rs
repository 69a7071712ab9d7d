//! Semantic agents under the conformance executor: `crypt`, `zip`, and
//! `union` (§3.3) must be *client*-transparent — programs see the same
//! console bytes, exit statuses, and read-back contents — while being
//! free to transform the at-rest representation underneath.
//!
//! These tests drive the agents with `ia-conform`'s generated programs
//! instead of hand-written scripts, so every filesystem op class in the
//! generator's vocabulary (create/append/read, rename, link, symlink,
//! chmod, chdir, truncate, dup) exercises the agents' path and data
//! interception.

use ia_conform::{check_client_equiv, run_config, sample, ConfOp, OpSet, Program};
use interposition_agents::agents::{CryptAgent, UnionAgent, ZipAgent};
use interposition_agents::interpose::{wrap_process, InterposedRouter};
use interposition_agents::kernel::{KernelBuilder, RunOutcome};
use interposition_agents::vm::ProgramBuilder;

const KEY: &[u8] = b"k3y-material";

/// Crypt round-trips: whatever a client writes through the agent it reads
/// back identically, across the generator's whole fs vocabulary. The
/// at-rest bytes differ, so the VFS digest is excluded.
#[test]
fn crypt_agent_round_trips_generated_programs() {
    for seed in 0..8 {
        let p = sample(seed, 20, OpSet::FS_CLIENT);
        check_client_equiv(&p, || vec![CryptAgent::boxed(b"/tmp/mix", KEY)], false)
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
    }
}

/// Zip round-trips under the same sweep.
#[test]
fn zip_agent_round_trips_generated_programs() {
    for seed in 0..8 {
        let p = sample(seed, 20, OpSet::FS_CLIENT);
        check_client_equiv(&p, || vec![ZipAgent::boxed(b"/tmp/mix")], false)
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
    }
}

/// Stacking the two transforming agents still round-trips: crypt sees
/// zip's compressed representation and vice versa.
#[test]
fn crypt_over_zip_stack_round_trips() {
    for seed in 0..4 {
        let p = sample(seed, 15, OpSet::FS_CLIENT);
        check_client_equiv(
            &p,
            || {
                vec![
                    CryptAgent::boxed(b"/tmp/mix", KEY),
                    ZipAgent::boxed(b"/tmp/mix"),
                ]
            },
            false,
        )
        .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
    }
}

/// The transformation is real: a writing program leaves *different* bytes
/// on disk under crypt, even though the client view is identical.
#[test]
fn crypt_changes_the_at_rest_digest() {
    let p = Program {
        seed: 3,
        ops: vec![
            ConfOp::CreateWrite {
                file: 0,
                payload: 1,
            },
            ConfOp::ReadEcho { file: 0 },
        ],
    };
    let bare = run_config(&p, Vec::new());
    let crypted = run_config(&p, vec![CryptAgent::boxed(b"/tmp/mix", KEY)]);
    assert_eq!(bare.outcome, RunOutcome::AllExited);
    assert_eq!(crypted.outcome, RunOutcome::AllExited);
    assert_eq!(
        bare.obs.client.console, crypted.obs.client.console,
        "client view identical"
    );
    assert_ne!(
        bare.obs.client.vfs_digest, crypted.obs.client.vfs_digest,
        "stored representation differs"
    );
}

/// A union mount over paths the generated programs never touch is fully
/// transparent — digest included.
#[test]
fn union_agent_outside_its_mounts_is_invisible() {
    for seed in 0..6 {
        let p = sample(seed, 20, OpSet::FS_CLIENT);
        check_client_equiv(
            &p,
            || vec![UnionAgent::boxed(&[b"/tmp/union=/tmp/mix:/tmp/alt"])],
            true,
        )
        .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
    }
}

/// Reading through the union: a file that physically lives in the second
/// branch is visible under the virtual prefix.
#[test]
fn union_agent_serves_reads_through_the_virtual_prefix() {
    let mut b = ProgramBuilder::new();
    let path = b.data_asciz(b"/tmp/union/hello");
    let buf = b.data_space(64);
    b.entry_here();
    b.la(0, path);
    b.li(1, 0);
    b.li(2, 0);
    b.sys(interposition_agents::abi::Sysno::Open);
    b.mov(12, 0);
    b.la(1, buf);
    b.li(2, 64);
    b.sys(interposition_agents::abi::Sysno::Read);
    b.mov(2, 0);
    b.li(0, 1);
    b.la(1, buf);
    b.sys(interposition_agents::abi::Sysno::Write);
    b.li(0, 0);
    b.sys(interposition_agents::abi::Sysno::Exit);
    let img = b.build();

    let mut k = KernelBuilder::new().build();
    k.mkdir_p(b"/tmp/alt").unwrap();
    k.mkdir_p(b"/tmp/mix").unwrap();
    k.write_file(b"/tmp/alt/hello", b"from the lower branch")
        .unwrap();
    let pid = k.spawn_image(&img, &[b"u"], b"u");
    let mut router = InterposedRouter::new();
    wrap_process(
        &mut k,
        &mut router,
        pid,
        UnionAgent::boxed(&[b"/tmp/union=/tmp/mix:/tmp/alt"]),
        &[],
    );
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert_eq!(k.console.output_string(), "from the lower branch");
}
