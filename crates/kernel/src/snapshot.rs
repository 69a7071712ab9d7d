//! Observable-state snapshots and kernel invariant checks.
//!
//! The transparency claim of the paper (§3.1) is a statement about what a
//! client — or anyone inspecting the machine afterwards — can observe. This
//! module defines that observation precisely, so differential tests
//! (`ia-conform`, `tests/transparency.rs`) compare a single well-defined
//! value instead of each picking its own ad-hoc subset of kernel state.
//!
//! Two granularities:
//!
//! * [`Observable`] — everything, including the virtual clock and executed
//!   instruction count. Two runs of the *same* configuration under
//!   different schedulers must agree on all of it.
//! * [`ClientView`] — what an application (or user diffing the disk
//!   afterwards) can see: console bytes, exit statuses, and filesystem
//!   content. Runs with and without pass-through agents must agree on
//!   this, while clocks legitimately differ by the interposition overhead.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use ia_vfs::Ino;

use crate::kernel::Kernel;
use crate::process::{Pid, ProcState};

/// Complete observable machine state after (or during) a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observable {
    /// Everything a client could observe.
    pub client: ClientView,
    /// Virtual nanoseconds elapsed.
    pub clock_ns: u64,
    /// Client instructions executed.
    pub total_insns: u64,
    /// Syscalls dispatched (including agent downcalls).
    pub total_syscalls: u64,
}

/// The client-visible portion of machine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientView {
    /// Raw console output bytes.
    pub console: Vec<u8>,
    /// Wait-status word of every process that ever exited, by pid.
    pub exit_statuses: BTreeMap<Pid, u32>,
    /// Content digest of the reachable filesystem tree (timestamp-free;
    /// see `Fs::content_digest`).
    pub vfs_digest: u64,
    /// Regular-file count.
    pub fs_files: usize,
    /// Total regular-file bytes.
    pub fs_bytes: u64,
}

/// A full capture of the kernel's world state: filesystem, process table
/// (including every address space, timer, wait channel and agent chain),
/// descriptor and socket tables, console, clocks and counters — the whole
/// [`Kernel`] value, cloned, minus its flight recorder.
///
/// A process's agent chain is captured as it stands, pending vectored
/// upcall included, through
/// [`Emulation::clone_box`](crate::Emulation::clone_box). Nothing is
/// delivered to take a capture, so taking one never changes the run it
/// captures.
///
/// The filesystem part shares structure with the live kernel (O(1), see
/// [`ia_vfs::FsSnapshot`]); each address space holds, and its clone
/// copies, only the data and stack extents its process has written, with
/// no allocation of the full space, so the total cost is O(processes ×
/// written bytes).
///
/// [`Kernel::restore`] keeps the restoring kernel's host configuration —
/// machine profile, engine, fast-path switch, flight recorder, exec cache
/// (and with it the exec gate) and snapshot-id counter — so a restore
/// rewinds what happened, not the record that it happened (which is
/// exactly what time-travel replay needs), and ids stay unique.
#[derive(Debug, Clone)]
pub struct KernelSnapshot {
    /// Unique id of this capture, for repro artifacts and logs.
    pub id: u64,
    world: Kernel,
}

impl Kernel {
    /// Captures the full world state. See [`KernelSnapshot`] for what is
    /// and is not included. Safe at any scheduler boundary (between
    /// `run()` calls, or from inside an agent's syscall hook). A capture
    /// taken from inside a hook holds no chain for the calling process:
    /// the router has taken that chain out of the process while its agents
    /// run.
    pub fn snapshot(&mut self) -> KernelSnapshot {
        KernelSnapshot {
            id: self.next_snapshot_id.fetch_add(1, Ordering::Relaxed),
            world: self.clone_world(),
        }
    }

    /// Rewinds the world to `snap`. The host configuration listed on
    /// [`KernelSnapshot`] persists; everything else — filesystem,
    /// processes, descriptors, sockets, console, clock, counters — is
    /// restored bit-identically, agent chains and their pending upcalls
    /// included.
    pub fn restore(&mut self, snap: &KernelSnapshot) {
        let host = std::mem::replace(self, snap.world.clone());
        self.profile = host.profile;
        self.engine = host.engine;
        self.fast_path = host.fast_path;
        self.obs = host.obs;
        self.exec_cache = host.exec_cache;
        self.next_snapshot_id = host.next_snapshot_id;
    }

    /// Forks the whole world: a new kernel whose state equals this one's,
    /// sharing filesystem structure until either side diverges. The branch
    /// keeps the same host configuration — sharing the exec cache and the
    /// snapshot-id counter — but gets a fresh (disabled) flight recorder:
    /// observers are per-kernel.
    pub fn branch(&mut self) -> Kernel {
        self.clone_world()
    }

    /// A clone of this kernel with a disabled flight recorder: the ring is
    /// moved aside around the clone, never copied.
    fn clone_world(&mut self) -> Kernel {
        let obs = std::mem::take(&mut self.obs);
        let world = self.clone();
        self.obs = obs;
        world
    }

    /// Rewinds *only the filesystem tree* to a [`ia_vfs::FsSnapshot`]
    /// while processes keep running — the transactional-abort primitive.
    ///
    /// Open descriptors survive the rewind: every restored inode's
    /// `open_refs` is re-derived from the live open-file table, file locks
    /// on inodes that no longer exist are dropped, and descriptors whose
    /// inode vanished (created after the capture) dangle harmlessly —
    /// subsequent operations on them fail with `ENOENT`, and close is a
    /// no-op, exactly as for an externally-revoked vnode.
    pub fn rollback_fs(&mut self, snap: &ia_vfs::FsSnapshot) {
        let mut live_refs: BTreeMap<Ino, u32> = BTreeMap::new();
        for (_, f) in self.files.iter() {
            if let crate::files::FileKind::Vnode(ino) = f.kind {
                *live_refs.entry(ino).or_insert(0) += 1;
            }
        }
        self.fs.restore_reconciled(snap, &live_refs);
        let dead: Vec<Ino> = self
            .flocks
            .keys()
            .filter(|ino| !self.fs.exists(**ino))
            .copied()
            .collect();
        for ino in dead {
            self.flocks.remove(&ino);
        }
    }

    /// Snapshots the full observable state.
    #[must_use]
    pub fn observable(&self) -> Observable {
        Observable {
            client: self.client_view(),
            clock_ns: self.clock.elapsed_ns(),
            total_insns: self.total_insns,
            total_syscalls: self.total_syscalls,
        }
    }

    /// Snapshots the client-visible state only.
    #[must_use]
    pub fn client_view(&self) -> ClientView {
        let stats = self.fs.stats();
        ClientView {
            console: self.console.output().to_vec(),
            exit_statuses: self.exit_statuses(),
            vfs_digest: self.fs.content_digest(),
            fs_files: stats.files,
            fs_bytes: stats.bytes,
        }
    }

    /// Wait-status of every exited process (reaped or zombie), by pid.
    #[must_use]
    pub fn exit_statuses(&self) -> BTreeMap<Pid, u32> {
        let mut m: BTreeMap<Pid, u32> = self.exit_log.iter().map(|(&p, &s)| (p, s)).collect();
        for p in self.procs.values() {
            if let ProcState::Zombie(st) = p.state {
                m.insert(p.pid, st);
            }
        }
        m
    }

    /// Structural invariants that must hold at any scheduler quiescent
    /// point, regardless of what programs or agents did. Returns a
    /// description of each violation; an empty vector means consistent.
    #[must_use]
    pub fn check_invariants(&self) -> Vec<String> {
        let mut bad = Vec::new();

        for p in self.procs.values() {
            if matches!(p.state, ProcState::Zombie(_)) && p.fds.iter().count() != 0 {
                bad.push(format!("zombie pid {} still holds descriptors", p.pid));
            }
        }

        // Every descriptor must reference a live open-file entry, and the
        // per-entry refcount must equal the number of descriptors (across
        // all processes) pointing at it.
        let mut referenced: BTreeMap<usize, u32> = BTreeMap::new();
        for p in self.procs.values() {
            for (_, e) in p.fds.iter() {
                *referenced.entry(e.file).or_insert(0) += 1;
                if self.files.get(e.file).is_err() {
                    bad.push(format!("pid {} fd references dead file {}", p.pid, e.file));
                }
            }
        }
        for (idx, f) in self.files.iter() {
            let held = referenced.get(&idx).copied().unwrap_or(0);
            if f.refs != held {
                bad.push(format!(
                    "open file {idx} refcount {} but {held} descriptors point at it",
                    f.refs
                ));
            }
        }
        bad
    }

    /// Invariants that must hold once every process has exited: nothing
    /// may leak. Returns violation descriptions, empty when clean.
    #[must_use]
    pub fn check_quiescent(&self) -> Vec<String> {
        let mut bad = self.check_invariants();
        if self.running_count() != 0 {
            bad.push(format!("{} processes still running", self.running_count()));
        }
        if self.files.live() != 0 {
            bad.push(format!("{} open files leaked", self.files.live()));
        }
        if !self.fs.pipes.is_empty() {
            bad.push(format!("{} pipes leaked", self.fs.pipes.len()));
        }
        if self.sockets.live() != 0 {
            bad.push(format!("{} sockets leaked", self.sockets.live()));
        }
        bad
    }
}

#[cfg(test)]
mod tests {

    use crate::kernel::KernelBuilder;
    use crate::sched::RunOutcome;
    use ia_vm::assemble;

    #[test]
    fn fresh_kernel_is_consistent_and_quiescent() {
        let k = KernelBuilder::new().build();
        assert!(k.check_invariants().is_empty());
        assert!(k.check_quiescent().is_empty());
    }

    #[test]
    fn snapshot_restore_mid_run_replays_identically() {
        // A program that writes, loops and exits; snapshot it mid-flight,
        // run to completion, rewind, run again: the two futures must be
        // bit-identical in every observable dimension.
        let src = r#"
            .data
            path: .asciz "/tmp/log"
            msg:  .asciz "0123456789abcdef"
            .text
            main:
                la r0, path
                li r1, 0x601
                li r2, 420
                sys open
                li r10, 40
            loop:
                li r0, 3
                la r1, msg
                li r2, 16
                sys write
                addi r10, r10, -1
                jnz r10, loop
                li r0, 9
                sys exit
        "#;
        let mut k = KernelBuilder::new().build();
        let img = assemble(src).unwrap();
        k.spawn_image(&img, &[b"t"], b"t");
        let mut router = crate::sched::KernelRouter;
        assert_eq!(
            crate::sched::run(
                &mut k,
                &mut router,
                crate::sched::RunLimits { max_steps: 200 }
            ),
            RunOutcome::StepLimit
        );

        let snap = k.snapshot();
        let mid = k.observable();
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        let first = k.observable();
        assert!(k.check_quiescent().is_empty());

        k.restore(&snap);
        assert_eq!(k.observable(), mid, "restore rewinds to capture time");
        assert!(
            k.check_invariants().is_empty(),
            "{:?}",
            k.check_invariants()
        );
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        assert_eq!(k.observable(), first, "replayed future is identical");
        assert!(k.check_quiescent().is_empty());
    }

    #[test]
    fn restore_rewinds_every_scheduler_counter_set() {
        // A getpid loop on the default configuration moves all three
        // host-side counter sets: slice turns (`perf`), in-loop answers
        // (`fast_stats`) and superinstructions (`fusion_stats`).
        let src = "
            main:   li r9, 500
            loop:   sys getpid
                    addi r9, r9, -1
                    jnz r9, loop
                    halt
        ";
        let mut k = KernelBuilder::new().build();
        k.spawn_image(&assemble(src).unwrap(), &[b"t"], b"t");
        let mut router = crate::sched::KernelRouter;
        let limits = crate::sched::RunLimits { max_steps: 600 };
        assert_eq!(
            crate::sched::run(&mut k, &mut router, limits),
            RunOutcome::StepLimit
        );
        let counters = |k: &crate::Kernel| (k.perf, k.fast_stats.rows(), k.fusion_stats.hits);
        let snap = k.snapshot();
        let mid = counters(&k);
        assert_ne!(mid.2, [0; ia_vm::FUSED_KINDS], "the loop ran fused");

        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        let end = counters(&k);
        assert!(end.0.slices > mid.0.slices);
        assert_ne!(end.1, mid.1);
        assert_ne!(end.2, mid.2);

        k.restore(&snap);
        assert_eq!(counters(&k), mid, "restore rewinds every counter set");
    }

    #[test]
    fn branch_is_isolated_from_parent() {
        let src = r#"
            .data
            path: .asciz "/tmp/branchfile"
            msg:  .asciz "payload"
            .text
            main:
                la r0, path
                li r1, 0x601
                li r2, 420
                sys open
                la r1, msg
                li r2, 7
                sys write
                li r0, 0
                sys exit
        "#;
        let mut k = KernelBuilder::new().build();
        let img = assemble(src).unwrap();
        k.spawn_image(&img, &[b"t"], b"t");

        let mut b = k.branch();
        assert_eq!(b.observable(), k.observable());

        // Run the branch to completion: the parent must not move.
        let before = k.observable();
        assert_eq!(b.run_to_completion(), RunOutcome::AllExited);
        assert_eq!(k.observable(), before, "parent untouched by branch run");

        // Mutate the parent's fs: the branch's tree must not see it.
        let b_digest = b.client_view().vfs_digest;
        k.write_file(b"/tmp/parent-only", b"x").unwrap();
        assert_eq!(b.client_view().vfs_digest, b_digest);

        // The parent then reaches the same end state as the branch did.
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        assert_eq!(k.client_view().console, b.client_view().console);
        assert_eq!(k.exit_statuses(), b.exit_statuses());
    }

    #[test]
    fn snapshot_ids_stay_unique_across_restore() {
        let mut k = KernelBuilder::new().build();
        let s1 = k.snapshot();
        k.restore(&s1);
        let s2 = k.snapshot();
        assert_ne!(s1.id, s2.id, "restore must not rewind the id counter");
    }

    #[test]
    fn branch_and_parent_hand_out_distinct_snapshot_ids() {
        let mut k = KernelBuilder::new().build();
        let mut b = k.branch();
        assert_ne!(b.snapshot().id, k.snapshot().id);
    }

    #[test]
    fn restore_keeps_host_configuration() {
        let mut k = KernelBuilder::new().build();
        let snap = k.snapshot();
        k.fast_path = false;
        k.engine = crate::Engine::Plain;
        k.obs.enable(8);
        k.restore(&snap);
        assert!(!k.fast_path);
        assert_eq!(k.engine, crate::Engine::Plain);
        assert!(k.obs.is_enabled(), "the recorder is not world state");
    }

    #[test]
    fn observable_captures_console_exits_and_digest() {
        let src = r#"
            .data
            msg:  .asciz "hi"
            path: .asciz "/tmp/out"
            .text
            main:
                la r0, path
                li r1, 0x601   ; O_WRONLY|O_CREAT|O_TRUNC
                li r2, 420
                sys open
                la r1, msg
                li r2, 2
                sys write
                li r0, 1
                la r1, msg
                li r2, 2
                sys write
                li r0, 7
                sys exit
        "#;
        let mut k = KernelBuilder::new().build();
        k.mkdir_p(b"/tmp").unwrap();
        let img = assemble(src).unwrap();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        assert!(k.check_quiescent().is_empty(), "{:?}", k.check_quiescent());

        let obs = k.observable();
        assert_eq!(obs.client.console, b"hi");
        assert_eq!(
            obs.client.exit_statuses.get(&pid),
            Some(&ia_abi::signal::wait_status_exited(7))
        );

        // Same program, fresh kernel: identical client view, and the digest
        // actually covers the file written above.
        let mut k2 = KernelBuilder::new().build();
        k2.mkdir_p(b"/tmp").unwrap();
        k2.spawn_image(&img, &[b"t"], b"t");
        assert_eq!(k2.run_to_completion(), RunOutcome::AllExited);
        assert_eq!(k2.client_view(), obs.client);

        k2.write_file(b"/tmp/out", b"ha").unwrap();
        assert_ne!(k2.client_view().vfs_digest, obs.client.vfs_digest);
        assert_eq!(k2.client_view().fs_bytes, obs.client.fs_bytes);
    }
}
