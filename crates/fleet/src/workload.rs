//! The per-seed tenant workload: a small, fully deterministic program
//! whose observable behavior depends only on its seed.
//!
//! Every tenant runs a loop mixing syscall traffic (open/write/getpid)
//! with pure compute, writes a per-seed banner to the console, and exits
//! with a seed-derived status — so the `Observable` (console bytes, exit
//! status, VFS digest, virtual clock, instruction count) differs between
//! seeds but is identical between a solo run and a fleet run of the same
//! seed. That makes these images the currency of the determinism tests,
//! the smoke gate, and the scaling benchmark.

use ia_abi::Sysno;
use ia_agents::{PassThrough, TimeSymbolic};
use ia_interpose::Agent;
use ia_prng::Prng;
use ia_vm::{Image, ProgramBuilder};

use crate::{FleetBase, Tenant};

/// Builds the deterministic workload image for `seed`.
#[must_use]
pub fn tenant_image(seed: u64) -> Image {
    let mut rng = Prng::new(seed ^ 0xf1ee_7000);
    let iters = rng.range_u64(24, 96);
    let burn = rng.range_u64(64, 512);
    let status = rng.below(64);
    let banner = format!("tenant {seed:016x} iters {iters}\n");

    let mut b = ProgramBuilder::new();
    let msg = b.data_asciz(banner.as_bytes());
    let msg_len = banner.len() as u64;
    let wpath = b.data_asciz(b"/tmp/tenant.out");

    b.entry_here();
    // Private scratch file (COW: the write diverges this tenant's VFS
    // from the shared base).
    b.la(0, wpath);
    b.li(1, 0x601); // O_WRONLY | O_CREAT | O_TRUNC
    b.li(2, 0o644);
    b.sys(Sysno::Open);
    b.mov(12, 0); // fd

    b.li(13, iters);
    let top = b.here();
    let done = b.new_label();
    b.jz(13, done);
    b.mov(0, 12);
    b.la(1, msg);
    b.li(2, msg_len);
    b.sys(Sysno::Write);
    b.sys(Sysno::Getpid);
    b.burn(burn); // seed-sized compute between syscalls
    b.addi(13, 13, -1);
    b.jmp(top);
    b.bind(done);

    // Banner to the console (part of the client-visible Observable).
    b.li(0, 1);
    b.la(1, msg);
    b.li(2, msg_len);
    b.sys(Sysno::Write);
    b.mov(0, 12);
    b.sys(Sysno::Close);
    b.li(0, status);
    b.sys(Sysno::Exit);
    b.build()
}

/// The standard tenant agent chain: a symbolic time agent under a
/// full-coverage pass-through observer — representative interposition
/// load on the chain-walk path. The time agent intercepts every number
/// and never batches, so no number is batchable: every trap walks the
/// chain one call at a time and no vectored upcall is delivered.
#[must_use]
pub fn tenant_agents() -> Vec<Box<dyn Agent>> {
    vec![
        TimeSymbolic::boxed(),
        PassThrough::boxed() as Box<dyn Agent>,
    ]
}

/// An agent-free chain, for measuring the interposition-less floor.
#[must_use]
pub fn bare_agents() -> Vec<Box<dyn Agent>> {
    Vec::new()
}

/// Path of pool image `p` inside a [`pool_base`].
#[must_use]
pub fn pool_path(p: usize) -> String {
    format!("/bin/t{p}")
}

/// Builds a shared base with `pool` distinct tenant binaries installed:
/// [`tenant_image`]`(p)` at [`pool_path`]`(p)`.
#[must_use]
pub fn pool_base(pool: usize) -> FleetBase {
    let mut base = FleetBase::new();
    for p in 0..pool {
        base.install_image(pool_path(p).as_bytes(), &tenant_image(p as u64));
    }
    base
}

/// Spawns `tenants` tenants over a [`pool_base`] of `pool` images:
/// tenant `i` runs image `i % pool` beneath a fresh `agents()` chain.
#[must_use]
pub fn spawn_pool(
    base: &FleetBase,
    tenants: usize,
    pool: usize,
    agents: fn() -> Vec<Box<dyn Agent>>,
) -> Vec<Tenant> {
    (0..tenants)
        .map(|i| {
            let path = pool_path(i % pool);
            Tenant::spawn_path(base, i, path.as_bytes(), &[b"tenant"], agents())
        })
        .collect()
}

/// Worker threads for a fleet run on this host: its cores, at most 8.
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_are_seed_deterministic_and_distinct() {
        let a = tenant_image(7);
        let b = tenant_image(7);
        let c = tenant_image(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
