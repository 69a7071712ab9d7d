//! Snapshot-cost measurement backing `reproduce --json` (`BENCH_3.json`).
//!
//! The versioned VFS stores inodes in a persistent radix trie with
//! structural sharing, so [`ia_vfs::Fs::snapshot`] is a handful of
//! reference-count bumps — O(1) in the number of files. This module
//! measures that claim directly, against the counterfactual an eager
//! versioning design pays (deep-copying every file's bytes), and
//! measures what the branch-based transaction agent built on top of it
//! costs end to end:
//!
//! * `vfs_snapshot_ns` — one `Fs::snapshot()` at VFS sizes 10..10k
//!   files. The committed numbers must stay flat and under a
//!   microsecond: that is the acceptance bar for the O(1) design.
//! * `vfs_eager_copy_ns` — walking the same tree and cloning all
//!   content bytes, i.e. what `snapshot()` cost before structural
//!   sharing (and what an undo-log worst case degenerates to).
//! * `kernel_snapshot_ns` — the full-world [`ia_kernel::Kernel::snapshot`]
//!   over the same VFS with one resident process; dominated by the
//!   process's address space (whose clone copies only its written
//!   extents), not the file count.
//! * `txn_commit_host_ns` / `txn_abort_host_ns` — a fixed three-file
//!   transactional session under [`ia_agents::TxnAgent`], run to
//!   completion over a preloaded VFS of each size. Begin is the O(1)
//!   snapshot. The end pays a trie diff over the changed inodes plus one
//!   pass over directory entries for the footprint report; abort adds a
//!   reconciliation of the changed inodes only.
//! * `txn_scaling_check` — commit and abort sessions at the smallest and
//!   largest size, interleaved in one window, and their cost ratio, which
//!   must stay under [`TXN_SCALING_BOUND`].

use std::hint::black_box;
use std::time::Instant;

use crate::harness::best_mean_ns;
use ia_agents::TxnAgent;
use ia_interpose::InterposedRouter;
use ia_kernel::{Kernel, KernelBuilder, RunOutcome};
use ia_obs::report::{Json, Layout};
use ia_vm::assemble;

/// VFS sizes (file counts) swept by every metric.
pub const SIZES: [usize; 4] = [10, 100, 1_000, 10_000];

/// One measured point.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric key, e.g. `vfs_snapshot_ns`.
    pub metric: &'static str,
    /// Number of files resident in the VFS.
    pub vfs_files: usize,
    /// Best-of-reps nanoseconds for one operation/session.
    pub ns: f64,
}

/// Builds a kernel whose VFS holds `files` small files spread over
/// directories of 100.
fn populated_kernel(files: usize) -> Kernel {
    let mut k = KernelBuilder::new().build();
    for i in 0..files {
        let dir = format!("/data/d{}", i / 100);
        k.mkdir_p(dir.as_bytes()).expect("mkdir");
        let path = format!("{dir}/f{i}");
        k.write_file(path.as_bytes(), format!("payload-{i}").as_bytes())
            .expect("write");
    }
    k
}

fn vfs_snapshot_ns(k: &Kernel) -> f64 {
    let [ns] = best_mean_ns(5, 10_000, |_| {
        black_box(k.fs.snapshot());
    });
    ns
}

/// The eager counterfactual: visit every file and clone its content into
/// fresh buffers, as a copy-on-nothing versioning scheme would.
fn vfs_eager_copy_ns(k: &mut Kernel, files: usize) -> f64 {
    let paths: Vec<String> = (0..files)
        .map(|i| format!("/data/d{}/f{i}", i / 100))
        .collect();
    let [ns] = best_mean_ns(3, 10, |_| {
        let mut total = 0usize;
        for p in &paths {
            total += black_box(k.read_file(p.as_bytes()).expect("exists")).len();
        }
        black_box(total);
    });
    ns
}

// `&mut`: each capture takes a fresh id from the never-rewound counter.
fn kernel_snapshot_ns(k: &mut Kernel) -> f64 {
    let [ns] = best_mean_ns(3, 20, |_| {
        black_box(k.snapshot());
    });
    ns
}

/// A three-file transactional session: create, overwrite, unlink.
const TXN_SESSION: &str = r#"
    .data
    p1: .asciz "/data/txn-a"
    p2: .asciz "/data/txn-b"
    p3: .asciz "/data/d0/f0"
    t:  .asciz "payload"
    .text
    main:
        la r0, p1
        li r1, 0x601
        li r2, 420
        sys open
        mov r3, r0
        mov r0, r3
        la r1, t
        li r2, 7
        sys write
        mov r0, r3
        sys close
        la r0, p2
        li r1, 0x601
        li r2, 420
        sys open
        mov r3, r0
        mov r0, r3
        la r1, t
        li r2, 7
        sys write
        mov r0, r3
        sys close
        la r0, p3
        sys unlink
        li r0, 0
        sys exit
"#;

/// Runs the session under a [`TxnAgent`] over a VFS of `files` files and
/// returns host ns for the whole run (spawn to exit), best of `reps`.
fn txn_session_ns(files: usize, commit: bool, reps: usize) -> f64 {
    let img = assemble(TXN_SESSION).expect("session assembles");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut k = populated_kernel(files);
        let pid = k.spawn_image(&img, &[b"txn"], b"txn");
        let mut router = InterposedRouter::new();
        let (txn, handle) = TxnAgent::new();
        if commit {
            handle.set_commit();
        }
        ia_interpose::wrap_process(&mut k, &mut router, pid, txn, &[]);
        let t0 = Instant::now();
        let outcome = k.run_with(&mut router);
        let ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(outcome, RunOutcome::AllExited);
        assert_eq!(handle.modified_paths().len(), 2);
        best = best.min(ns);
    }
    best
}

/// Largest tolerated cost ratio of a txn session over the largest swept
/// VFS to one over the smallest. The end of a session still passes over
/// every directory entry once, so the ratio is not 1; a whole-tree
/// flatten or a per-file rehash puts it near 500.
pub const TXN_SCALING_BOUND: f64 = 150.0;

/// Txn session cost at the sweep's extremes, measured in one window.
#[derive(Debug, Clone, Copy)]
pub struct TxnScaling {
    /// Best-of-reps commit session ns at the smallest and largest size.
    pub commit_ns: (f64, f64),
    /// Best-of-reps abort session ns at the smallest and largest size.
    pub abort_ns: (f64, f64),
}

impl TxnScaling {
    /// Large-over-small cost ratios, (commit, abort).
    #[must_use]
    pub fn ratios(&self) -> (f64, f64) {
        (
            self.commit_ns.1 / self.commit_ns.0,
            self.abort_ns.1 / self.abort_ns.0,
        )
    }

    /// True when both ratios are under [`TXN_SCALING_BOUND`].
    #[must_use]
    pub fn holds(&self) -> bool {
        let (c, a) = self.ratios();
        c < TXN_SCALING_BOUND && a < TXN_SCALING_BOUND
    }
}

/// Measures [`TxnScaling`], alternating small and large sessions so host
/// speed drift hits both sides of each ratio alike.
#[must_use]
pub fn txn_scaling(reps: usize) -> TxnScaling {
    let (small, large) = (SIZES[0], SIZES[SIZES.len() - 1]);
    let mut best = [f64::INFINITY; 4];
    for _ in 0..reps {
        for (i, (files, commit)) in [(small, true), (large, true), (small, false), (large, false)]
            .into_iter()
            .enumerate()
        {
            best[i] = best[i].min(txn_session_ns(files, commit, 1));
        }
    }
    TxnScaling {
        commit_ns: (best[0], best[1]),
        abort_ns: (best[2], best[3]),
    }
}

/// Sweeps every metric over [`SIZES`].
#[must_use]
pub fn run_all() -> Vec<Sample> {
    let mut out = Vec::new();
    for files in SIZES {
        let mut k = populated_kernel(files);
        out.push(Sample {
            metric: "vfs_snapshot_ns",
            vfs_files: files,
            ns: vfs_snapshot_ns(&k),
        });
        out.push(Sample {
            metric: "vfs_eager_copy_ns",
            vfs_files: files,
            ns: vfs_eager_copy_ns(&mut k, files),
        });
        // One resident process so the kernel capture includes the part
        // that actually dominates it (the flat address space).
        let img = assemble("main:\n li r0, 0\n sys exit\n").expect("trivial image");
        k.spawn_image(&img, &[b"idle"], b"idle");
        out.push(Sample {
            metric: "kernel_snapshot_ns",
            vfs_files: files,
            ns: kernel_snapshot_ns(&mut k),
        });
        out.push(Sample {
            metric: "txn_commit_host_ns",
            vfs_files: files,
            ns: txn_session_ns(files, true, 3),
        });
        out.push(Sample {
            metric: "txn_abort_host_ns",
            vfs_files: files,
            ns: txn_session_ns(files, false, 3),
        });
    }
    out
}

/// Renders the samples, the txn scaling check and the multi-tenant fleet
/// sweep as the `BENCH_3.json` document.
#[must_use]
pub fn render_json(
    samples: &[Sample],
    scaling: &TxnScaling,
    fleet: &[crate::fleetbench::FleetSample],
) -> String {
    let rows = samples.iter().map(|sm| {
        Json::inline()
            .field("metric", sm.metric)
            .field("vfs_files", sm.vfs_files)
            .field("ns", Json::fixed(sm.ns, 1))
    });
    // The O(1) acceptance check, made explicit so CI and readers need no
    // arithmetic: snapshot ns at the smallest and largest swept size.
    let snap = |files: usize| {
        samples
            .iter()
            .find(|s| s.metric == "vfs_snapshot_ns" && s.vfs_files == files)
            .map_or(f64::NAN, |s| s.ns)
    };
    let (first, last) = (SIZES[0], SIZES[SIZES.len() - 1]);
    let (lo, hi) = (snap(first), snap(last));
    Json::document("bench", "BENCH_3")
        .field(
            "description",
            "snapshot cost vs VFS size: persistent-trie capture vs eager copy, \
             full-kernel capture, branch-based txn sessions, and multi-tenant fleet scaling",
        )
        .field("machine_profile", "i486_25")
        .field("fleet", crate::fleetbench::render_section(fleet))
        .field("samples", Json::array(Layout::Block, rows))
        .field(
            "snapshot_o1_check",
            Json::inline()
                .field(&format!("ns_at_{first}_files"), Json::fixed(lo, 1))
                .field(&format!("ns_at_{last}_files"), Json::fixed(hi, 1))
                .field("growth_ratio", Json::fixed(hi / lo, 2))
                .field("under_1us", lo < 1_000.0 && hi < 1_000.0),
        )
        .field("txn_scaling_check", {
            let (cr, ar) = scaling.ratios();
            Json::inline()
                .field(
                    &format!("commit_ns_at_{first}_files"),
                    Json::fixed(scaling.commit_ns.0, 1),
                )
                .field(
                    &format!("commit_ns_at_{last}_files"),
                    Json::fixed(scaling.commit_ns.1, 1),
                )
                .field("commit_ratio", Json::fixed(cr, 1))
                .field(
                    &format!("abort_ns_at_{first}_files"),
                    Json::fixed(scaling.abort_ns.0, 1),
                )
                .field(
                    &format!("abort_ns_at_{last}_files"),
                    Json::fixed(scaling.abort_ns.1, 1),
                )
                .field("abort_ratio", Json::fixed(ar, 1))
                .field(&format!("under_{TXN_SCALING_BOUND}x"), scaling.holds())
        })
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_cost_is_flat_and_sub_microsecond() {
        // The acceptance criterion itself, at the sweep's extremes. Debug
        // builds are ~10x slower than release, so gate at a loose 10 µs
        // here; the committed BENCH_3.json carries the release numbers.
        let small = populated_kernel(SIZES[0]);
        let large = populated_kernel(SIZES[SIZES.len() - 1]);
        let (a, b) = (vfs_snapshot_ns(&small), vfs_snapshot_ns(&large));
        assert!(a < 10_000.0, "snapshot of 10-file VFS took {a} ns");
        assert!(b < 10_000.0, "snapshot of 10k-file VFS took {b} ns");
        assert!(
            b < a * 20.0,
            "snapshot cost grew with VFS size: {a} ns -> {b} ns"
        );
    }

    #[test]
    fn txn_sessions_complete_at_every_size() {
        // One commit + one abort at the smallest size keeps the unit test
        // cheap; run_all() covers the sweep.
        let c = txn_session_ns(SIZES[0], true, 1);
        let a = txn_session_ns(SIZES[0], false, 1);
        assert!(c > 0.0 && a > 0.0);
    }
}
