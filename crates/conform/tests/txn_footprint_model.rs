//! Model-based test of the transaction footprint and the diff-driven abort.
//!
//! A populated template kernel is branched and its tree captured, as a
//! `TxnAgent` session begins. A seeded random sequence of create, write,
//! truncate, unlink, link, rename, mkdir, rmdir, symlink and chmod
//! operations then runs on the live tree, over a small namespace so that
//! names collide: hard links, renames over existing names, and a file and a
//! directory replacing each other at one path all occur. Files are opened
//! and closed along the way, some opened and unlinked before the capture,
//! so `open_refs` moves and unlinked-but-open inodes survive or die.
//!
//! Three claims are checked against naive models that look at everything:
//!
//! * [`footprint`] equals the reference footprint, computed by flattening
//!   both whole trees into path → content maps and comparing them.
//! * [`Fs::restore_reconciled`], which reconciles only the inodes the trie
//!   diff reports, leaves the same inodes and `open_refs` as a reconcile
//!   that scans every inode number, and keeps the ino allocator unrewound.
//! * `Kernel::rollback_fs` restores the begin digest, and once the
//!   remaining descriptors close, `check_quiescent` is empty.

use std::collections::BTreeMap;

use ia_abi::{OpenFlags, Timeval};
use ia_agents::txn::{footprint, Footprint};
use ia_kernel::{FileKind, Kernel, KernelBuilder};
use ia_prng::{run_cases, Prng};
use ia_vfs::inode::ROOT_INO;
use ia_vfs::{Cred, FileContent, Fs, FsSnapshot, Ino};

/// Seeded cases, each one branch of the template.
const CASES: u64 = 160;
/// Operations per case.
const OPS: usize = 40;
/// Directories the operations name paths under.
const DIRS: [&str; 5] = ["/data", "/data/d0", "/data/d1", "/data/d2", "/data/d1/sub"];
/// Leaf names; `sub` is also a directory name, so files and directories
/// contend for it.
const NAMES: [&str; 6] = ["f0", "f1", "f2", "f3", "sub", "x"];
/// Padding files that push the inode trie past 1,024 keys (three levels).
const PADDING: usize = 1_100;

const NOW: Timeval = Timeval { sec: 900, usec: 0 };
const ROOT: Cred = Cred::ROOT;

fn template() -> Kernel {
    let mut k = KernelBuilder::new().build();
    for d in ["/data/d0", "/data/d1", "/data/d2", "/data/d1/sub"] {
        k.mkdir_p(d.as_bytes()).unwrap();
    }
    for d in ["/data/d0", "/data/d1", "/data/d2"] {
        for f in &NAMES[..4] {
            let path = format!("{d}/{f}");
            k.write_file(path.as_bytes(), path.as_bytes()).unwrap();
        }
    }
    k.write_file(b"/data/d1/sub/f0", b"nested").unwrap();
    for i in 0..PADDING {
        let path = format!("/pad/p{}/f{i}", i / 100);
        k.mkdir_p(format!("/pad/p{}", i / 100).as_bytes()).unwrap();
        k.write_file(path.as_bytes(), &[i as u8; 40]).unwrap();
    }
    k
}

/// The reference model: `path → Some(content)` for regular files and
/// `None` for every other node, over the whole tree.
fn flatten(fs: &Fs, ino: Ino, prefix: &[u8], out: &mut BTreeMap<Vec<u8>, Option<FileContent>>) {
    let Ok(node) = fs.get(ino) else { return };
    if let Some(data) = node.as_file() {
        out.insert(prefix.to_vec(), Some(data.clone()));
        return;
    }
    out.insert(prefix.to_vec(), None);
    let Ok(entries) = fs.readdir(ino) else { return };
    for e in entries {
        if e.name == b"." || e.name == b".." {
            continue;
        }
        let mut p = prefix.to_vec();
        if !p.ends_with(b"/") {
            p.push(b'/');
        }
        p.extend_from_slice(&e.name);
        flatten(fs, e.ino, &p, out);
    }
}

fn reference_footprint(live: &Fs, snap: &FsSnapshot) -> Footprint {
    let mut old_fs = Fs::default();
    old_fs.restore(snap);
    let (mut old, mut new) = (BTreeMap::new(), BTreeMap::new());
    flatten(&old_fs, ROOT_INO, b"/", &mut old);
    flatten(live, ROOT_INO, b"/", &mut new);
    Footprint {
        modified: new
            .iter()
            .filter(|(p, c)| c.is_some() && old.get(*p) != Some(c))
            .map(|(p, _)| p.clone())
            .collect(),
        deleted: old
            .keys()
            .filter(|p| !new.contains_key(*p))
            .cloned()
            .collect(),
    }
}

/// The reference reconcile: rewind, then visit every ino below
/// `live_next`, re-deriving `open_refs` and reclaiming the dead.
fn full_scan_reconcile(snap: &FsSnapshot, live_refs: &BTreeMap<Ino, u32>, live_next: Ino) -> Fs {
    let mut fs = Fs::default();
    fs.restore(snap);
    for ino in 0..live_next {
        let Ok(n) = fs.get_mut(ino) else { continue };
        let want = live_refs.get(&ino).copied().unwrap_or(0);
        n.open_refs = want;
        if n.meta.nlink == 0 && want == 0 {
            fs.decref(ino); // reclaims: no links, no references
        }
    }
    fs
}

/// Open-file references per ino, as `Kernel::rollback_fs` derives them.
fn live_refs(k: &Kernel) -> BTreeMap<Ino, u32> {
    let mut refs = BTreeMap::new();
    for (_, f) in k.files.iter() {
        if let FileKind::Vnode(ino) = f.kind {
            *refs.entry(ino).or_insert(0) += 1;
        }
    }
    refs
}

/// The ino the next allocation in `fs` would get.
fn next_ino(fs: &Fs) -> Ino {
    fs.clone()
        .create_file(ROOT_INO, b"next-ino-probe", 0o644, ROOT, NOW)
        .unwrap()
}

/// The session under test: random operations on one branch.
struct Session {
    k: Kernel,
    /// Open-file table indices the session holds, with their inos.
    open: Vec<(usize, Ino)>,
}

impl Session {
    fn path(rng: &mut Prng) -> Vec<u8> {
        format!("{}/{}", rng.pick(&DIRS), rng.pick(&NAMES)).into_bytes()
    }

    fn parent(&self, path: &[u8]) -> Option<(Ino, Vec<u8>)> {
        self.k.fs.resolve_parent(ROOT_INO, path, ROOT).ok()
    }

    fn lookup(&self, path: &[u8]) -> Option<Ino> {
        self.k
            .fs
            .resolve_nofollow(ROOT_INO, path, ROOT)
            .ok()
            .map(|r| r.ino)
    }

    fn open(&mut self, path: &[u8]) {
        let Some(ino) = self.lookup(path) else { return };
        if self.k.fs.get(ino).is_ok_and(|n| n.as_file().is_some()) {
            let idx = self.k.files.insert(FileKind::Vnode(ino), OpenFlags(0));
            self.k.fs.incref(ino);
            self.open.push((idx, ino));
        }
    }

    fn close(&mut self, which: usize) {
        let (idx, _) = self.open.swap_remove(which);
        if let Some(last) = self.k.files.decref(idx) {
            if let FileKind::Vnode(ino) = last.kind {
                self.k.fs.decref(ino);
            }
        }
    }

    /// One random operation; failures (ENOENT, EEXIST, ...) are no-ops.
    fn step(&mut self, rng: &mut Prng) {
        let p = Self::path(rng);
        match rng.below(13) {
            0 => {
                if let Some((dir, name)) = self.parent(&p) {
                    if let Ok(ino) = self.k.fs.create_file(dir, &name, 0o644, ROOT, NOW) {
                        let len = rng.range_usize(0, 64);
                        self.k.fs.write_at(ino, 0, &rng.bytes(len), NOW).unwrap();
                    }
                }
            }
            1 | 2 => {
                if let Some(ino) = self.lookup(&p) {
                    let off = rng.below(80);
                    let len = rng.range_usize(1, 32);
                    let _ = self.k.fs.write_at(ino, off, &rng.bytes(len), NOW);
                }
            }
            3 => {
                if let Some(ino) = self.lookup(&p) {
                    let _ = self.k.fs.truncate(ino, rng.below(40), NOW);
                }
            }
            4 => {
                if let Some((dir, name)) = self.parent(&p) {
                    let _ = self.k.fs.unlink(dir, &name, ROOT, NOW);
                }
            }
            5 => {
                let target = Self::path(rng);
                if let (Some(ino), Some((dir, name))) = (self.lookup(&target), self.parent(&p)) {
                    let _ = self.k.fs.link(dir, &name, ino, ROOT, NOW);
                }
            }
            6 => {
                let to = Self::path(rng);
                if let (Some((fd, fname)), Some((td, tname))) = (self.parent(&p), self.parent(&to))
                {
                    let _ = self.k.fs.rename(fd, &fname, td, &tname, ROOT, NOW);
                }
            }
            7 => {
                if let Some((dir, name)) = self.parent(&p) {
                    let _ = self.k.fs.mkdir(dir, &name, 0o755, ROOT, NOW);
                }
            }
            8 => {
                if let Some((dir, name)) = self.parent(&p) {
                    let _ = self.k.fs.rmdir(dir, &name, ROOT, NOW);
                }
            }
            9 => {
                if let Some((dir, name)) = self.parent(&p) {
                    let _ = self.k.fs.symlink(dir, &name, &Self::path(rng), ROOT, NOW);
                }
            }
            10 => {
                if let Some(ino) = self.lookup(&p) {
                    let _ = self
                        .k
                        .fs
                        .chmod(ino, 0o600 | rng.below(0o100) as u32, ROOT, NOW);
                }
            }
            11 => self.replace(&p, rng),
            _ => {
                if !self.open.is_empty() && rng.bool() {
                    self.close(rng.range_usize(0, self.open.len()));
                } else {
                    self.open(&p);
                }
            }
        }
    }

    /// Swaps the kind of the node at `path`: a file (or symlink) becomes
    /// a directory holding one file, an empty directory becomes a file.
    fn replace(&mut self, path: &[u8], rng: &mut Prng) {
        let Some((dir, name)) = self.parent(path) else {
            return;
        };
        let Some(ino) = self.lookup(path) else { return };
        if self.k.fs.get(ino).is_ok_and(|n| n.as_dir().is_some()) {
            if self.k.fs.rmdir(dir, &name, ROOT, NOW).is_ok() {
                let file = self.k.fs.create_file(dir, &name, 0o644, ROOT, NOW).unwrap();
                self.k.fs.write_at(file, 0, &rng.bytes(8), NOW).unwrap();
            }
        } else if self.k.fs.unlink(dir, &name, ROOT, NOW).is_ok() {
            let sub = self.k.fs.mkdir(dir, &name, 0o755, ROOT, NOW).unwrap();
            let file = self.k.fs.create_file(sub, b"f0", 0o644, ROOT, NOW).unwrap();
            self.k.fs.write_at(file, 0, &rng.bytes(8), NOW).unwrap();
        }
    }
}

#[test]
fn footprint_and_diff_driven_abort_match_full_scan_models() {
    let mut template = template();
    let mut reported = 0usize;
    run_cases(CASES, |case, rng| {
        let mut s = Session {
            k: template.branch(),
            open: Vec::new(),
        };
        // Before the capture: some open files, and some of those
        // unlinked, so the capture holds nlink-0 inodes kept by a reference.
        for _ in 0..rng.below(4) {
            let p = Session::path(rng);
            s.open(&p);
            if rng.bool() {
                if let Some((dir, name)) = s.parent(&p) {
                    let _ = s.k.fs.unlink(dir, &name, ROOT, NOW);
                }
            }
        }
        let snap = s.k.fs.snapshot();
        let begin_digest = s.k.fs.content_digest();
        for _ in 0..OPS {
            s.step(rng);
        }

        let got = footprint(&s.k.fs, &snap);
        assert_eq!(got, reference_footprint(&s.k.fs, &snap), "case {case}");
        reported += got.modified.len() + got.deleted.len();

        let refs = live_refs(&s.k);
        let live_next = next_ino(&s.k.fs);
        let mut diffed = s.k.fs.clone();
        diffed.restore_reconciled(&snap, &refs);
        let scanned = full_scan_reconcile(&snap, &refs, live_next);
        for ino in 0..live_next {
            assert_eq!(diffed.get(ino), scanned.get(ino), "case {case}: ino {ino}");
        }
        assert_eq!(
            next_ino(&diffed),
            live_next,
            "case {case}: allocator rewound"
        );

        s.k.rollback_fs(&snap);
        for ino in 0..live_next {
            assert_eq!(s.k.fs.get(ino), diffed.get(ino), "case {case}: ino {ino}");
        }
        assert_eq!(s.k.fs.content_digest(), begin_digest, "case {case}");
        while !s.open.is_empty() {
            s.close(0);
        }
        assert!(
            s.k.check_quiescent().is_empty(),
            "case {case}: {:?}",
            s.k.check_quiescent()
        );
    });
    assert!(
        reported > CASES as usize,
        "the operations rarely changed anything"
    );
}
