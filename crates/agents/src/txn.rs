//! The `txn` agent — a "transactional software environment" (§1.4).
//!
//! "Applications can be constructed that provide an environment in which
//! changes to persistent state made by unmodified programs can be emulated
//! and performed transactionally ... all persistent execution side effects
//! (e.g., filesystem writes) are remembered and appear within the
//! transactional environment to have been performed normally, but where in
//! actuality the user is presented with a commit or abort choice at the
//! end of such a session. Indeed, one such transactional program invocation
//! could occur within another, transparently providing nested
//! transactions."
//!
//! Mechanics: **branch at begin, merge or rewind at end**, built on the
//! versioned VFS. `init` captures the filesystem tree with an O(1)
//! [`ia_vfs::FsSnapshot`] (structural sharing — nothing is copied). The
//! client then mutates the *real* tree in place: every read transparently
//! sees uncommitted state, directory listings included, with zero
//! per-syscall overhead — no interception, no shadow files, no undo log.
//! At the root client's `exit`, commit is a no-op (the mutations are
//! already the tree) and abort rewinds the tree to the begin snapshot via
//! `Kernel::rollback_fs`, reconciling live descriptors.
//!
//! The end of a session costs what the session changed, plus one pass over
//! directory entries. [`footprint`] asks the inode trie which inodes no
//! longer share their leaf with the begin capture ([`Fs::changed_since`],
//! a parallel trie walk that skips shared subtrees), then walks the begin
//! and live namespaces together: an untouched inode costs a set lookup,
//! and a path is built only for an entry it reports. The abort's
//! reconciliation visits only the changed inodes too. Recovering paths is
//! still one pass over the entries of every directory, because inodes
//! carry no parent links to climb from a changed inode to its names.
//!
//! Nesting composes by snapshot ordering: each agent rewinds to *its own*
//! begin capture, so an outer abort discards an inner commit — the inner
//! transaction committed into a world the outer one then threw away.
//!
//! Scope note (documented divergence): the transaction brackets the whole
//! filesystem tree, not just the session's own writes — an abort also
//! rewinds concurrent writes by processes outside the session. The paper's
//! per-session shadowing traded that isolation for copy costs; the
//! branch-based design trades it back for O(1) begin and true read
//! transparency.

use std::sync::{Arc, Mutex};

use ia_interpose::InterestSet;
use ia_kernel::SysOutcome;
use ia_toolkit::{SymCtx, Symbolic, SymbolicSyscall};
use ia_vfs::inode::ROOT_INO;
use ia_vfs::{Fs, FsSnapshot, Ino, Inode};

/// Commit-or-abort decision for the transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Decision {
    /// Keep all changes made during the session.
    Commit,
    /// Rewind the tree to the begin snapshot (the safe default).
    #[default]
    Abort,
}

#[derive(Debug, Default)]
struct TxnState {
    /// The O(1) tree capture taken at `init`.
    begin: Option<FsSnapshot>,
    decision: Decision,
    finished: Option<Decision>,
    root_pid: Option<u32>,
    /// What the session changed, diffed at its end.
    footprint: Footprint,
}

/// Host-side control of the transaction.
#[derive(Debug, Clone, Default)]
pub struct TxnHandle {
    state: Arc<Mutex<TxnState>>,
}

impl TxnHandle {
    /// Choose to commit at session end.
    pub fn set_commit(&self) {
        self.state.lock().unwrap().decision = Decision::Commit;
    }

    /// Choose to abort at session end (the default).
    pub fn set_abort(&self) {
        self.state.lock().unwrap().decision = Decision::Abort;
    }

    /// Paths the session modified or created, diffed against the begin
    /// snapshot when the session ended (empty until then).
    #[must_use]
    pub fn modified_paths(&self) -> Vec<Vec<u8>> {
        self.state.lock().unwrap().footprint.modified.clone()
    }

    /// Paths the session removed, diffed against the begin snapshot when
    /// the session ended (empty until then).
    #[must_use]
    pub fn deleted_paths(&self) -> Vec<Vec<u8>> {
        self.state.lock().unwrap().footprint.deleted.clone()
    }

    /// The decision that was actually applied, once the session ended.
    #[must_use]
    pub fn outcome(&self) -> Option<Decision> {
        self.state.lock().unwrap().finished
    }
}

/// The transactional agent.
#[derive(Clone)]
pub struct Txn {
    state: Arc<Mutex<TxnState>>,
}

/// Public constructor pairing agent and handle.
pub struct TxnAgent;

impl TxnAgent {
    /// Creates a transaction agent and its control handle.
    #[must_use]
    #[allow(clippy::new_ret_no_self)] // factory: returns (agent, handle)
    pub fn new() -> (Box<Symbolic<Txn>>, TxnHandle) {
        let handle = TxnHandle::default();
        (
            Box::new(Symbolic::new(Txn {
                state: handle.state.clone(),
            })),
            handle,
        )
    }
}

/// What a session changed, by path, relative to its begin capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Regular files present now whose content differs from, or is
    /// absent in, the capture at the same path; sorted.
    pub modified: Vec<Vec<u8>>,
    /// Paths present in the capture and gone now, of any type; sorted.
    pub deleted: Vec<Vec<u8>>,
}

/// Diffs the live tree against the `begin` capture by path. Hard links
/// count once per name; symlinks are not followed.
#[must_use]
pub fn footprint(live: &Fs, begin: &FsSnapshot) -> Footprint {
    let changed = live.changed_since(begin);
    let mut walk = Walk {
        live,
        begin,
        changed: &changed,
        path: Vec::new(),
        out: Footprint::default(),
    };
    if !changed.is_empty() {
        walk.visit(Some(ROOT_INO), Some(ROOT_INO));
    }
    let mut out = walk.out;
    out.modified.sort_unstable();
    out.deleted.sort_unstable();
    out
}

/// The joint walk over the begin (`old`) and live (`new`) namespaces.
struct Walk<'a> {
    live: &'a Fs,
    begin: &'a FsSnapshot,
    /// Inodes whose leaf differs between the two trees, ascending.
    changed: &'a [Ino],
    /// The path being visited ("" for the root).
    path: Vec<u8>,
    out: Footprint,
}

impl Walk<'_> {
    fn untouched(&self, ino: Ino) -> bool {
        self.changed.binary_search(&ino).is_err()
    }

    /// Compares the node `self.path` names in each tree.
    fn visit(&mut self, old: Option<Ino>, new: Option<Ino>) {
        let n = new.and_then(|i| self.live.get(i).ok());
        if old == new && new.is_some_and(|i| self.untouched(i)) {
            // One inode, shared by both trees: only descendants can differ.
            for (name, &child) in n.and_then(Inode::as_dir).into_iter().flatten() {
                self.child(name, Some(child), Some(child));
            }
            return;
        }
        let o = old.and_then(|i| self.begin.get(i));
        match n {
            Some(node) => {
                if let Some(data) = node.as_file() {
                    if o.and_then(Inode::as_file) != Some(data) {
                        self.out.modified.push(self.path.clone());
                    }
                }
            }
            None if o.is_some() => self.out.deleted.push(self.path.clone()),
            None => {}
        }
        let (od, nd) = (o.and_then(Inode::as_dir), n.and_then(Inode::as_dir));
        for (name, &child) in nd.into_iter().flatten() {
            let was = od.and_then(|m| m.get(name)).copied();
            self.child(name, was, Some(child));
        }
        for (name, &child) in od.into_iter().flatten() {
            if !nd.is_some_and(|m| m.contains_key(name)) {
                self.child(name, Some(child), None);
            }
        }
    }

    fn child(&mut self, name: &[u8], old: Option<Ino>, new: Option<Ino>) {
        if name == b"." || name == b".." {
            return;
        }
        // An untouched non-directory has nothing below it to report.
        if let (Some(o), Some(n)) = (old, new) {
            if o == n
                && self.untouched(n)
                && self.live.get(n).map_or(true, |i| i.as_dir().is_none())
            {
                return;
            }
        }
        let saved = self.path.len();
        self.path.push(b'/');
        self.path.extend_from_slice(name);
        self.visit(old, new);
        self.path.truncate(saved);
    }
}

impl Txn {
    fn finish(&mut self, ctx: &mut SymCtx<'_, '_>) {
        let (decision, snap) = {
            let st = self.state.lock().unwrap();
            if st.finished.is_some() {
                return;
            }
            (st.decision, st.begin.clone())
        };
        let Some(snap) = snap else { return };
        // The footprint is taken now, before an abort rewinds the tree.
        let fp = footprint(&ctx.raw.kernel.fs, &snap);
        self.state.lock().unwrap().footprint = fp;
        if decision == Decision::Abort {
            // Rewind the world's tree to the begin capture; live
            // descriptors are reconciled by the kernel.
            ctx.raw.kernel.rollback_fs(&snap);
        }
        // Commit is a no-op: the session's mutations already are the tree.
        self.state.lock().unwrap().finished = Some(decision);
    }
}

impl SymbolicSyscall for Txn {
    fn name(&self) -> &'static str {
        "txn"
    }

    fn interests(&self) -> InterestSet {
        // Begin/end bracketing only — the session's syscalls pass through
        // untouched (mutations are made in place and rewound on abort).
        ia_toolkit::minimum_interests()
    }

    fn init(&mut self, ctx: &mut SymCtx<'_, '_>, _args: &[Vec<u8>]) {
        let mut st = self.state.lock().unwrap();
        st.root_pid = Some(ctx.pid());
        // O(1): shares the tree with the live filesystem.
        st.begin = Some(ctx.raw.kernel.fs.snapshot());
    }

    fn sys_exit(&mut self, ctx: &mut SymCtx<'_, '_>, status: u64) -> SysOutcome {
        if self.state.lock().unwrap().root_pid == Some(ctx.pid()) {
            self.finish(ctx);
        }
        ctx.down_args(ia_abi::Sysno::Exit, [status, 0, 0, 0, 0, 0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{Kernel, KernelBuilder, RunOutcome};

    const MUTATOR: &str = r#"
        .data
        path: .asciz "/home/doc.txt"
        junk: .asciz "/home/junk.txt"
        text: .asciz "updated"
        .text
        main:
            la r0, path
            li r1, 0x601        ; O_WRONLY|O_CREAT|O_TRUNC
            li r2, 420
            sys open
            mov r3, r0
            mov r0, r3
            la r1, text
            li r2, 7
            sys write
            mov r0, r3
            sys close
            la r0, junk
            sys unlink
            li r0, 0
            sys exit
    "#;

    fn run_txn(commit: bool) -> (Kernel, TxnHandle) {
        let img = ia_vm::assemble(MUTATOR).unwrap();
        let mut k = KernelBuilder::new().build();
        k.write_file(b"/home/doc.txt", b"original").unwrap();
        k.write_file(b"/home/junk.txt", b"junk").unwrap();
        let mut router = InterposedRouter::new();
        let (agent, handle) = TxnAgent::new();
        if commit {
            handle.set_commit();
        }
        ia_interpose::spawn_with_agent(&mut k, agent, &[], &img, &[b"m"], b"m");
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        (k, handle)
    }

    #[test]
    fn abort_leaves_no_trace() {
        let (mut k, handle) = run_txn(false);
        assert_eq!(handle.outcome(), Some(Decision::Abort));
        assert_eq!(k.read_file(b"/home/doc.txt").unwrap(), b"original");
        assert_eq!(k.read_file(b"/home/junk.txt").unwrap(), b"junk");
        // No shadow machinery: nothing txn-ish ever appears under /tmp.
        let tmp =
            k.fs.resolve(ia_vfs::inode::ROOT_INO, b"/tmp", ia_vfs::Cred::ROOT)
                .unwrap()
                .ino;
        let leftovers: Vec<_> =
            k.fs.readdir(tmp)
                .unwrap()
                .into_iter()
                .filter(|e| e.name.starts_with(b".txn"))
                .collect();
        assert!(leftovers.is_empty(), "leftovers: {leftovers:?}");
        // The footprint was still reported, even though it was rewound.
        assert_eq!(handle.modified_paths(), vec![b"/home/doc.txt".to_vec()]);
        assert_eq!(handle.deleted_paths(), vec![b"/home/junk.txt".to_vec()]);
    }

    #[test]
    fn commit_applies_writes_and_deletes() {
        let (mut k, handle) = run_txn(true);
        assert_eq!(handle.outcome(), Some(Decision::Commit));
        assert_eq!(k.read_file(b"/home/doc.txt").unwrap(), b"updated");
        assert!(k.read_file(b"/home/junk.txt").is_err(), "delete kept");
    }

    #[test]
    fn reads_inside_txn_see_uncommitted_state() {
        // Write then read back within the same session: must see "updated".
        // The session defaults to abort, so after the run the real file is
        // back to "original" — uncommitted state was visible inside only.
        let src = r#"
            .data
            path: .asciz "/home/doc.txt"
            text: .asciz "updated"
            buf:  .space 16
            .text
            main:
                la r0, path
                li r1, 0x601
                li r2, 420
                sys open
                mov r3, r0
                mov r0, r3
                la r1, text
                li r2, 7
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
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        k.write_file(b"/home/doc.txt", b"original").unwrap();
        let mut router = InterposedRouter::new();
        let (agent, _handle) = TxnAgent::new();
        ia_interpose::spawn_with_agent(&mut k, agent, &[], &img, &[b"m"], b"m");
        k.run_with(&mut router);
        assert_eq!(k.console.output_string(), "updated");
        assert_eq!(
            k.read_file(b"/home/doc.txt").unwrap(),
            b"original",
            "abort rewound the session's write"
        );
    }

    #[test]
    fn nested_transactions_compose() {
        // Inner txn commits into the outer txn's world; outer aborts — the
        // real file must be untouched (outer rewinds past the inner commit).
        let img = ia_vm::assemble(MUTATOR).unwrap();
        let mut k = KernelBuilder::new().build();
        k.write_file(b"/home/doc.txt", b"original").unwrap();
        k.write_file(b"/home/junk.txt", b"junk").unwrap();
        let mut router = InterposedRouter::new();
        let (outer, outer_h) = TxnAgent::new();
        let (inner, inner_h) = TxnAgent::new();
        inner_h.set_commit();
        outer_h.set_abort();
        let pid = k.spawn_image(&img, &[b"m"], b"m");
        // Outer wrapped first, inner on top (sees traps first).
        ia_interpose::wrap_process(&mut k, &mut router, pid, outer, &[]);
        ia_interpose::wrap_process(&mut k, &mut router, pid, inner, &[]);
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(inner_h.outcome(), Some(Decision::Commit));
        assert_eq!(
            k.read_file(b"/home/doc.txt").unwrap(),
            b"original",
            "outer abort wins over inner commit"
        );
        assert!(k.read_file(b"/home/junk.txt").is_ok());
    }

    #[test]
    fn abort_with_descriptor_open_across_the_rewind() {
        // The client creates a file *after* begin, keeps it open, and
        // exits without closing: the abort must reconcile the dangling
        // descriptor (its inode never existed at begin) without leaking
        // or panicking.
        let src = r#"
            .data
            path: .asciz "/home/late.txt"
            text: .asciz "late"
            .text
            main:
                la r0, path
                li r1, 0x601
                li r2, 420
                sys open
                la r1, text
                li r2, 4
                sys write
                ; deliberately no close
                li r0, 0
                sys exit
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let mut router = InterposedRouter::new();
        let (agent, handle) = TxnAgent::new();
        handle.set_abort();
        ia_interpose::spawn_with_agent(&mut k, agent, &[], &img, &[b"m"], b"m");
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(handle.outcome(), Some(Decision::Abort));
        assert!(
            k.read_file(b"/home/late.txt").is_err(),
            "file created inside the aborted session must not survive"
        );
        assert!(k.check_quiescent().is_empty(), "{:?}", k.check_quiescent());
    }
}
