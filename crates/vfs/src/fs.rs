//! The filesystem proper: an inode table plus the `namei`-style resolution
//! and mutation operations the kernel serves to applications.

use std::collections::BTreeMap;

use ia_abi::{DirEntry, Errno, Stat, Timeval};

use crate::digest::Digest;
use crate::inode::{Cred, Ino, Inode, InodeKind, ROOT_INO};
use crate::path::{self, is_absolute, split_components};
use crate::pipe::PipeTable;
use crate::pstore::{FileContent, PVec};

/// Maximum symlink expansions in one resolution, per 4.3BSD `MAXSYMLINKS`.
pub const MAXSYMLINKS: usize = 8;

/// Result of resolving a pathname to an inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// The inode the path names.
    pub ino: Ino,
}

/// Counters describing the filesystem's current shape, for tests and tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsStats {
    /// Live inodes of any kind.
    pub inodes: usize,
    /// Regular files.
    pub files: usize,
    /// Directories.
    pub dirs: usize,
    /// Symbolic links.
    pub symlinks: usize,
    /// Total bytes held in regular files.
    pub bytes: u64,
}

/// The in-memory filesystem.
///
/// The inode table is a persistent radix trie ([`PVec`]): `clone()` and
/// [`Fs::snapshot`] are O(1), and divergent copies share structure.
#[derive(Debug, Clone)]
pub struct Fs {
    inodes: PVec<Inode>,
    next_ino: Ino,
    /// Pipe buffers backing `pipe(2)` pairs and named FIFOs.
    pub pipes: PipeTable,
}

/// An O(1) capture of the at-rest filesystem tree: the inode table and the
/// allocation cursor. Pipe buffers are deliberately excluded — they are
/// transient IPC state owned by the kernel's descriptor layer, not part of
/// the durable tree (and [`Fs::content_digest`] never sees them).
#[derive(Debug, Clone)]
pub struct FsSnapshot {
    inodes: PVec<Inode>,
    next_ino: Ino,
}

impl FsSnapshot {
    /// Borrows an inode as it was at capture time.
    #[must_use]
    pub fn get(&self, ino: Ino) -> Option<&Inode> {
        self.inodes.get(ino)
    }
}

impl Default for Fs {
    fn default() -> Self {
        Self::new(Timeval::default())
    }
}

impl Fs {
    /// Creates a filesystem containing only the root directory, owned by
    /// root with mode 755.
    #[must_use]
    pub fn new(now: Timeval) -> Fs {
        let mut inodes = PVec::new();
        let mut root_map = BTreeMap::new();
        root_map.insert(b".".to_vec(), ROOT_INO);
        root_map.insert(b"..".to_vec(), ROOT_INO);
        let mut root = Inode::new(InodeKind::Directory(root_map), 0o755, Cred::ROOT, now);
        root.meta.nlink = 2;
        inodes.insert(ROOT_INO, root);
        Fs {
            inodes,
            next_ino: ROOT_INO + 1,
            pipes: PipeTable::new(),
        }
    }

    // ---- snapshot & restore -------------------------------------------

    /// Captures the filesystem tree in O(1): the persistent inode trie is
    /// shared, not copied, and later mutations on either side copy only
    /// the paths they touch.
    #[must_use]
    pub fn snapshot(&self) -> FsSnapshot {
        FsSnapshot {
            inodes: self.inodes.clone(),
            next_ino: self.next_ino,
        }
    }

    /// Rewinds the tree to `snap`. Pipe buffers are untouched (see
    /// [`FsSnapshot`]); callers owning kernel state reconcile open-file
    /// references themselves.
    pub fn restore(&mut self, snap: &FsSnapshot) {
        self.inodes = snap.inodes.clone();
        self.next_ino = snap.next_ino;
    }

    /// Rewinds the tree to `snap` while the surrounding world keeps
    /// running — the transactional-abort path, where open descriptors
    /// outlive the rewind. `live_refs` maps ino → number of open-file
    /// references held *now*; every inode the rewind changes gets its
    /// `open_refs` re-derived from it (the capture-time count is stale),
    /// and unlinked inodes nobody references anymore are reclaimed.
    ///
    /// Unlike [`Self::restore`], the ino allocator is *not* rewound:
    /// descriptors left dangling by the rewind must never alias a file
    /// created afterwards, so inos stay unique for the kernel's lifetime.
    ///
    /// Only the inodes [`Self::changed_since`] reports are reconciled, so
    /// the cost follows what changed since the capture, not the tree size.
    /// That relies on the live tree's `open_refs` already matching
    /// `live_refs`, as the kernel keeps them: a leaf the live tree still
    /// shares with `snap` then carries the right count, and a dead one
    /// would already have been reclaimed.
    pub fn restore_reconciled(&mut self, snap: &FsSnapshot, live_refs: &BTreeMap<Ino, u32>) {
        let changed = self.changed_since(snap);
        let live_next = self.next_ino;
        self.restore(snap);
        self.next_ino = live_next;
        for ino in changed {
            let Some(n) = self.inodes.get(ino) else {
                continue;
            };
            let want = live_refs.get(&ino).copied().unwrap_or(0);
            if n.meta.nlink == 0 && want == 0 {
                self.inodes.remove(ino);
            } else if n.open_refs != want {
                self.inodes.get_mut(ino).expect("just seen").open_refs = want;
            }
        }
    }

    /// The inodes, ascending, whose trie leaf the live tree no longer
    /// shares with `snap`: created, removed, or touched by any mutation
    /// since the capture (a touched inode may still compare equal). Costs
    /// O(changed × trie height) via [`PVec::diff`].
    #[must_use]
    pub fn changed_since(&self, snap: &FsSnapshot) -> Vec<Ino> {
        let mut changed = Vec::new();
        snap.inodes
            .diff(&self.inodes, |ino, _, _| changed.push(ino));
        changed
    }

    // ---- inode access -------------------------------------------------

    /// Borrows an inode. A stale number is the caller's bug surfaced as
    /// `ENOENT`, matching what a kernel returns for a vanished file.
    pub fn get(&self, ino: Ino) -> Result<&Inode, Errno> {
        self.inodes.get(ino).ok_or(Errno::ENOENT)
    }

    /// Mutably borrows an inode.
    pub fn get_mut(&mut self, ino: Ino) -> Result<&mut Inode, Errno> {
        self.inodes.get_mut(ino).ok_or(Errno::ENOENT)
    }

    /// True if the inode is live.
    #[must_use]
    pub fn exists(&self, ino: Ino) -> bool {
        self.inodes.contains(ino)
    }

    fn alloc(&mut self, inode: Inode) -> Ino {
        let ino = self.next_ino;
        self.next_ino += 1;
        self.inodes.insert(ino, inode);
        ino
    }

    /// Registers an open reference so unlinked-but-open files survive.
    pub fn incref(&mut self, ino: Ino) {
        if let Some(n) = self.inodes.get_mut(ino) {
            n.open_refs += 1;
        }
    }

    /// Drops an open reference, reclaiming the inode if it is also
    /// link-free.
    pub fn decref(&mut self, ino: Ino) {
        if let Some(n) = self.inodes.get_mut(ino) {
            n.open_refs = n.open_refs.saturating_sub(1);
            if n.open_refs == 0 && n.meta.nlink == 0 {
                self.inodes.remove(ino);
            }
        }
    }

    fn reclaim_if_dead(&mut self, ino: Ino) {
        if let Some(n) = self.inodes.get(ino) {
            if n.meta.nlink == 0 && n.open_refs == 0 {
                self.inodes.remove(ino);
            }
        }
    }

    // ---- resolution ---------------------------------------------------

    /// Resolves `path` relative to the directory `start`, following every
    /// symbolic link (the behaviour of all calls except `lstat`, `readlink`
    /// and the link-creating calls).
    pub fn resolve(&self, start: Ino, pth: &[u8], cred: Cred) -> Result<Resolved, Errno> {
        self.resolve_inner(ROOT_INO, start, pth, cred, true)
    }

    /// Resolves `path` without following a symlink in the final component
    /// (for `lstat`, `readlink`, `unlink`, `rename` sources, ...).
    pub fn resolve_nofollow(&self, start: Ino, pth: &[u8], cred: Cred) -> Result<Resolved, Errno> {
        self.resolve_inner(ROOT_INO, start, pth, cred, false)
    }

    /// [`Self::resolve`] with an explicit root directory, for `chroot`ed
    /// processes: absolute paths (and absolute symlink targets) restart at
    /// `root` instead of the global root.
    pub fn resolve_rooted(
        &self,
        root: Ino,
        start: Ino,
        pth: &[u8],
        cred: Cred,
    ) -> Result<Resolved, Errno> {
        self.resolve_inner(root, start, pth, cred, true)
    }

    /// [`Self::resolve_nofollow`] with an explicit root directory.
    pub fn resolve_nofollow_rooted(
        &self,
        root: Ino,
        start: Ino,
        pth: &[u8],
        cred: Cred,
    ) -> Result<Resolved, Errno> {
        self.resolve_inner(root, start, pth, cred, false)
    }

    fn resolve_inner(
        &self,
        root: Ino,
        start: Ino,
        pth: &[u8],
        cred: Cred,
        follow_last: bool,
    ) -> Result<Resolved, Errno> {
        path::validate(pth)?;
        let trailing_slash = pth.len() > 1 && pth.ends_with(b"/");
        let mut cur = if is_absolute(pth) { root } else { start };
        let mut stack: Vec<Vec<u8>> = split_components(pth)
            .into_iter()
            .rev()
            .map(<[u8]>::to_vec)
            .collect();
        let mut expansions = 0usize;
        while let Some(comp) = stack.pop() {
            let node = self.get(cur)?;
            let dir = node.as_dir().ok_or(Errno::ENOTDIR)?;
            if !node.permits(cred, 1) {
                return Err(Errno::EACCES);
            }
            // A chroot jail holds at its own root: ".." there is itself.
            let next = if comp == b".." && cur == root {
                cur
            } else {
                *dir.get(comp.as_slice()).ok_or(Errno::ENOENT)?
            };
            let next_node = self.get(next)?;
            let is_last = stack.is_empty();
            if let InodeKind::Symlink(target) = &next_node.kind {
                if !is_last || follow_last || trailing_slash {
                    expansions += 1;
                    if expansions > MAXSYMLINKS {
                        return Err(Errno::ELOOP);
                    }
                    if is_absolute(target) {
                        cur = root;
                    }
                    for c in split_components(target).into_iter().rev() {
                        stack.push(c.to_vec());
                    }
                    continue;
                }
            }
            cur = next;
        }
        if trailing_slash && !matches!(self.get(cur)?.kind, InodeKind::Directory(_)) {
            return Err(Errno::ENOTDIR);
        }
        Ok(Resolved { ino: cur })
    }

    /// Resolves the *directory part* of `path`, returning the directory's
    /// inode and the final component, for creation and removal operations.
    pub fn resolve_parent(
        &self,
        start: Ino,
        pth: &[u8],
        cred: Cred,
    ) -> Result<(Ino, Vec<u8>), Errno> {
        self.resolve_parent_rooted(ROOT_INO, start, pth, cred)
    }

    /// [`Self::resolve_parent`] with an explicit root directory.
    pub fn resolve_parent_rooted(
        &self,
        root: Ino,
        start: Ino,
        pth: &[u8],
        cred: Cred,
    ) -> Result<(Ino, Vec<u8>), Errno> {
        path::validate(pth)?;
        let (dir_part, base) = path::split_dir_base(pth);
        let dir = self.resolve_rooted(root, start, &dir_part, cred)?.ino;
        if !matches!(self.get(dir)?.kind, InodeKind::Directory(_)) {
            return Err(Errno::ENOTDIR);
        }
        Ok((dir, base))
    }

    fn check_create(&self, dir: Ino, name: &[u8], cred: Cred) -> Result<(), Errno> {
        if name.is_empty() || name == b"." || name == b".." {
            return Err(Errno::EEXIST);
        }
        if name.len() > ia_abi::types::MAXNAMLEN {
            return Err(Errno::ENAMETOOLONG);
        }
        let d = self.get(dir)?;
        let map = d.as_dir().ok_or(Errno::ENOTDIR)?;
        if map.contains_key(name) {
            return Err(Errno::EEXIST);
        }
        if !d.permits(cred, 2) {
            return Err(Errno::EACCES);
        }
        Ok(())
    }

    fn insert_entry(&mut self, dir: Ino, name: &[u8], ino: Ino, now: Timeval) {
        let d = self.inodes.get_mut(dir).expect("checked");
        d.meta.mtime = now;
        d.meta.ctime = now;
        d.as_dir_mut().expect("checked").insert(name.to_vec(), ino);
    }

    // ---- creation -----------------------------------------------------

    /// Creates an empty regular file. Returns its inode.
    pub fn create_file(
        &mut self,
        dir: Ino,
        name: &[u8],
        perm: u32,
        cred: Cred,
        now: Timeval,
    ) -> Result<Ino, Errno> {
        self.check_create(dir, name, cred)?;
        let ino = self.alloc(Inode::new(
            InodeKind::Regular(FileContent::new()),
            perm,
            cred,
            now,
        ));
        self.insert_entry(dir, name, ino, now);
        Ok(ino)
    }

    /// Creates a directory.
    pub fn mkdir(
        &mut self,
        dir: Ino,
        name: &[u8],
        perm: u32,
        cred: Cred,
        now: Timeval,
    ) -> Result<Ino, Errno> {
        self.check_create(dir, name, cred)?;
        let mut map = BTreeMap::new();
        let ino = self.alloc(Inode::new(
            InodeKind::Directory(map.clone()),
            perm,
            cred,
            now,
        ));
        map.insert(b".".to_vec(), ino);
        map.insert(b"..".to_vec(), dir);
        self.inodes.get_mut(ino).expect("fresh").kind = InodeKind::Directory(map);
        self.insert_entry(dir, name, ino, now);
        // The child's ".." is a new link to the parent.
        self.inodes.get_mut(dir).expect("checked").meta.nlink += 1;
        Ok(ino)
    }

    /// Creates a symbolic link holding `target`.
    pub fn symlink(
        &mut self,
        dir: Ino,
        name: &[u8],
        target: &[u8],
        cred: Cred,
        now: Timeval,
    ) -> Result<Ino, Errno> {
        self.check_create(dir, name, cred)?;
        let ino = self.alloc(Inode::new(
            InodeKind::Symlink(target.to_vec()),
            0o777,
            cred,
            now,
        ));
        self.insert_entry(dir, name, ino, now);
        Ok(ino)
    }

    /// Creates a character-device node (superuser only, as `mknod(2)`).
    pub fn mknod_chardev(
        &mut self,
        dir: Ino,
        name: &[u8],
        dev: u32,
        perm: u32,
        cred: Cred,
        now: Timeval,
    ) -> Result<Ino, Errno> {
        if !cred.is_root() {
            return Err(Errno::EPERM);
        }
        self.check_create(dir, name, cred)?;
        let ino = self.alloc(Inode::new(InodeKind::CharDevice(dev), perm, cred, now));
        self.insert_entry(dir, name, ino, now);
        Ok(ino)
    }

    /// Creates a named pipe.
    pub fn mkfifo(
        &mut self,
        dir: Ino,
        name: &[u8],
        perm: u32,
        cred: Cred,
        now: Timeval,
    ) -> Result<Ino, Errno> {
        self.check_create(dir, name, cred)?;
        let ino = self.alloc(Inode::new(InodeKind::Fifo(None), perm, cred, now));
        self.insert_entry(dir, name, ino, now);
        Ok(ino)
    }

    /// Creates a socket node (for `bind` of unix-domain-style sockets).
    pub fn mksock(
        &mut self,
        dir: Ino,
        name: &[u8],
        perm: u32,
        cred: Cred,
        now: Timeval,
    ) -> Result<Ino, Errno> {
        self.check_create(dir, name, cred)?;
        let ino = self.alloc(Inode::new(InodeKind::Socket, perm, cred, now));
        self.insert_entry(dir, name, ino, now);
        Ok(ino)
    }

    /// Creates an additional hard link `name` in `dir` to the existing
    /// inode `target`. Directories cannot be multiply linked.
    pub fn link(
        &mut self,
        dir: Ino,
        name: &[u8],
        target: Ino,
        cred: Cred,
        now: Timeval,
    ) -> Result<(), Errno> {
        if matches!(self.get(target)?.kind, InodeKind::Directory(_)) {
            return Err(Errno::EPERM);
        }
        self.check_create(dir, name, cred)?;
        self.insert_entry(dir, name, target, now);
        let t = self.inodes.get_mut(target).expect("checked");
        t.meta.nlink += 1;
        t.meta.ctime = now;
        Ok(())
    }

    // ---- removal ------------------------------------------------------

    /// Removes the non-directory entry `name` from `dir`.
    pub fn unlink(&mut self, dir: Ino, name: &[u8], cred: Cred, now: Timeval) -> Result<(), Errno> {
        if name == b"." || name == b".." || name.is_empty() {
            return Err(Errno::EINVAL);
        }
        let d = self.get(dir)?;
        let map = d.as_dir().ok_or(Errno::ENOTDIR)?;
        let target = *map.get(name).ok_or(Errno::ENOENT)?;
        if !d.permits(cred, 2) {
            return Err(Errno::EACCES);
        }
        if matches!(self.get(target)?.kind, InodeKind::Directory(_)) {
            return Err(Errno::EPERM);
        }
        let d = self.inodes.get_mut(dir).expect("checked");
        d.as_dir_mut().expect("checked").remove(name);
        d.meta.mtime = now;
        d.meta.ctime = now;
        let t = self.inodes.get_mut(target).expect("checked");
        t.meta.nlink = t.meta.nlink.saturating_sub(1);
        t.meta.ctime = now;
        self.reclaim_if_dead(target);
        Ok(())
    }

    /// Removes the empty directory `name` from `dir`.
    pub fn rmdir(&mut self, dir: Ino, name: &[u8], cred: Cred, now: Timeval) -> Result<(), Errno> {
        if name == b"." {
            return Err(Errno::EINVAL);
        }
        if name == b".." || name.is_empty() {
            return Err(Errno::ENOTEMPTY);
        }
        let d = self.get(dir)?;
        let map = d.as_dir().ok_or(Errno::ENOTDIR)?;
        let target = *map.get(name).ok_or(Errno::ENOENT)?;
        if target == ROOT_INO {
            return Err(Errno::EBUSY);
        }
        if !d.permits(cred, 2) {
            return Err(Errno::EACCES);
        }
        let t = self.get(target)?;
        let tmap = t.as_dir().ok_or(Errno::ENOTDIR)?;
        if tmap.keys().any(|k| k != b"." && k != b"..") {
            return Err(Errno::ENOTEMPTY);
        }
        let d = self.inodes.get_mut(dir).expect("checked");
        d.as_dir_mut().expect("checked").remove(name);
        d.meta.mtime = now;
        d.meta.ctime = now;
        d.meta.nlink = d.meta.nlink.saturating_sub(1); // child's ".." is gone
        let t = self.inodes.get_mut(target).expect("checked");
        t.meta.nlink = 0;
        self.reclaim_if_dead(target);
        Ok(())
    }

    // ---- rename -------------------------------------------------------

    /// True if `anc` is `node` itself or an ancestor of `node`.
    fn is_same_or_ancestor(&self, anc: Ino, node: Ino) -> Result<bool, Errno> {
        let mut cur = node;
        loop {
            if cur == anc {
                return Ok(true);
            }
            let parent = match self.get(cur)?.as_dir() {
                Some(map) => *map.get(b"..".as_slice()).unwrap_or(&cur),
                None => return Ok(false),
            };
            if parent == cur {
                return Ok(false); // reached the root
            }
            cur = parent;
        }
    }

    /// Renames `(from_dir, from_name)` to `(to_dir, to_name)` with 4.3BSD
    /// semantics: an existing target of compatible type is replaced
    /// atomically; a directory cannot be moved under itself.
    pub fn rename(
        &mut self,
        from_dir: Ino,
        from_name: &[u8],
        to_dir: Ino,
        to_name: &[u8],
        cred: Cred,
        now: Timeval,
    ) -> Result<(), Errno> {
        for n in [from_name, to_name] {
            if n.is_empty() || n == b"." || n == b".." {
                return Err(Errno::EINVAL);
            }
        }
        let src = {
            let d = self.get(from_dir)?;
            let map = d.as_dir().ok_or(Errno::ENOTDIR)?;
            if !d.permits(cred, 2) {
                return Err(Errno::EACCES);
            }
            *map.get(from_name).ok_or(Errno::ENOENT)?
        };
        {
            let d = self.get(to_dir)?;
            d.as_dir().ok_or(Errno::ENOTDIR)?;
            if !d.permits(cred, 2) {
                return Err(Errno::EACCES);
            }
        }
        let src_is_dir = matches!(self.get(src)?.kind, InodeKind::Directory(_));
        if src_is_dir && self.is_same_or_ancestor(src, to_dir)? {
            return Err(Errno::EINVAL);
        }
        // Same entry: rename("a", "a") succeeds as a no-op.
        let existing = self
            .get(to_dir)?
            .as_dir()
            .expect("checked")
            .get(to_name)
            .copied();
        if existing == Some(src) {
            return Ok(());
        }
        if let Some(old) = existing {
            let old_is_dir = matches!(self.get(old)?.kind, InodeKind::Directory(_));
            match (src_is_dir, old_is_dir) {
                (true, false) => return Err(Errno::ENOTDIR),
                (false, true) => return Err(Errno::EISDIR),
                (true, true) => self.rmdir(to_dir, to_name, cred, now)?,
                (false, false) => self.unlink(to_dir, to_name, cred, now)?,
            }
        }
        // Detach from the source directory.
        {
            let d = self.inodes.get_mut(from_dir).expect("checked");
            d.as_dir_mut().expect("checked").remove(from_name);
            d.meta.mtime = now;
            d.meta.ctime = now;
        }
        self.insert_entry(to_dir, to_name, src, now);
        if src_is_dir && from_dir != to_dir {
            // Fix the child's ".." and both parents' link counts.
            self.inodes
                .get_mut(src)
                .expect("checked")
                .as_dir_mut()
                .expect("src is dir")
                .insert(b"..".to_vec(), to_dir);
            self.inodes.get_mut(from_dir).expect("checked").meta.nlink -= 1;
            self.inodes.get_mut(to_dir).expect("checked").meta.nlink += 1;
        }
        Ok(())
    }

    // ---- data I/O -----------------------------------------------------

    /// Reads up to `len` bytes at `off` from a regular file into a new
    /// vector, marking it [`Self::accessed`].
    pub fn read_at(
        &mut self,
        ino: Ino,
        off: u64,
        len: usize,
        now: Timeval,
    ) -> Result<Vec<u8>, Errno> {
        let n = self.get_mut(ino)?;
        let data = n.as_file().ok_or(Errno::EINVAL)?;
        let mut out = vec![0; data.readable(off as usize, len)];
        data.read_into(off as usize, &mut out);
        n.meta.atime = now;
        Ok(out)
    }

    /// Sets a regular file's atime to `now`, as a read of it does. For
    /// readers that take the bytes straight from [`FileContent`].
    pub fn accessed(&mut self, ino: Ino, now: Timeval) -> Result<(), Errno> {
        let n = self.get_mut(ino)?;
        n.as_file().ok_or(Errno::EINVAL)?;
        n.meta.atime = now;
        Ok(())
    }

    /// Writes `data` at `off` in a regular file, zero-filling any hole.
    pub fn write_at(
        &mut self,
        ino: Ino,
        off: u64,
        data: &[u8],
        now: Timeval,
    ) -> Result<usize, Errno> {
        let n = self.get_mut(ino)?;
        let file = n.as_file_mut().ok_or(Errno::EINVAL)?;
        file.write_at(off as usize, data);
        n.meta.mtime = now;
        n.meta.ctime = now;
        Ok(data.len())
    }

    /// Truncates (or extends with zeros) a regular file to `len` bytes.
    pub fn truncate(&mut self, ino: Ino, len: u64, now: Timeval) -> Result<(), Errno> {
        let n = self.get_mut(ino)?;
        match &mut n.kind {
            InodeKind::Regular(d) => {
                d.resize(len as usize);
                n.meta.mtime = now;
                n.meta.ctime = now;
                Ok(())
            }
            InodeKind::Directory(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    // ---- metadata -----------------------------------------------------

    /// `stat` for an inode.
    pub fn stat(&self, ino: Ino) -> Result<Stat, Errno> {
        Ok(self.get(ino)?.stat(ino))
    }

    /// Changes permission bits. Only the owner or the superuser may.
    pub fn chmod(&mut self, ino: Ino, perm: u32, cred: Cred, now: Timeval) -> Result<(), Errno> {
        let n = self.get_mut(ino)?;
        if !cred.is_root() && cred.uid != n.meta.uid {
            return Err(Errno::EPERM);
        }
        n.meta.perm = perm & 0o7777;
        n.meta.ctime = now;
        Ok(())
    }

    /// Changes ownership. 4.3BSD restricts this to the superuser.
    pub fn chown(
        &mut self,
        ino: Ino,
        uid: u32,
        gid: u32,
        cred: Cred,
        now: Timeval,
    ) -> Result<(), Errno> {
        let n = self.get_mut(ino)?;
        if !cred.is_root() {
            return Err(Errno::EPERM);
        }
        if uid != u32::MAX {
            n.meta.uid = uid;
        }
        if gid != u32::MAX {
            n.meta.gid = gid;
        }
        n.meta.ctime = now;
        Ok(())
    }

    /// Sets access and modification times (`utimes(2)`).
    pub fn utimes(
        &mut self,
        ino: Ino,
        atime: Timeval,
        mtime: Timeval,
        cred: Cred,
        now: Timeval,
    ) -> Result<(), Errno> {
        let n = self.get_mut(ino)?;
        if !cred.is_root() && cred.uid != n.meta.uid {
            return Err(Errno::EPERM);
        }
        n.meta.atime = atime;
        n.meta.mtime = mtime;
        n.meta.ctime = now;
        Ok(())
    }

    /// Reads a symlink's target.
    pub fn readlink(&self, ino: Ino) -> Result<Vec<u8>, Errno> {
        match &self.get(ino)?.kind {
            InodeKind::Symlink(t) => Ok(t.clone()),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Lists a directory as `getdirentries` records (including `.`/`..`),
    /// in deterministic byte order.
    pub fn readdir(&self, ino: Ino) -> Result<Vec<DirEntry>, Errno> {
        let map = self.get(ino)?.as_dir().ok_or(Errno::ENOTDIR)?;
        Ok(map
            .iter()
            .map(|(name, &i)| DirEntry::new(i, name.clone()))
            .collect())
    }

    /// Shape counters for tests and tools.
    #[must_use]
    pub fn stats(&self) -> FsStats {
        let mut s = FsStats {
            inodes: self.inodes.len(),
            ..FsStats::default()
        };
        self.inodes.for_each(|n| match &n.kind {
            InodeKind::Regular(d) => {
                s.files += 1;
                s.bytes += d.len() as u64;
            }
            InodeKind::Directory(_) => s.dirs += 1,
            InodeKind::Symlink(_) => s.symlinks += 1,
            _ => {}
        });
        s
    }

    /// A deterministic digest over everything a client can observe in the
    /// tree reachable from the root: paths, node types, permission bits,
    /// ownership, link counts, file contents and symlink targets.
    ///
    /// File contents enter as each file's cached digest
    /// ([`FileContent::digest`]), not as their bytes, so a digest over a
    /// tree that shares most files with an already-digested one hashes
    /// only the paths, metadata and the files changed since.
    ///
    /// Timestamps are deliberately excluded — they track the virtual clock,
    /// which advances differently under interposition, so including them
    /// would make every transparency comparison fail vacuously. Unlinked
    /// inodes kept alive only by open descriptors are unreachable by name
    /// and therefore also excluded.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        let mut h = Digest::new();
        self.digest_walk(&mut Vec::new(), ROOT_INO, &mut h);
        h.finish()
    }

    fn digest_walk(&self, path: &mut Vec<u8>, ino: Ino, h: &mut Digest) {
        let Ok(node) = self.get(ino) else { return };
        h.mix(path);
        h.mix(&[0]);
        h.mix(&node.meta.perm.to_le_bytes());
        h.mix(&node.meta.uid.to_le_bytes());
        h.mix(&node.meta.gid.to_le_bytes());
        h.mix(&node.meta.nlink.to_le_bytes());
        match &node.kind {
            InodeKind::Regular(data) => {
                h.mix(b"F");
                h.mix(&(data.len() as u64).to_le_bytes());
                h.mix(&data.digest().to_le_bytes());
            }
            InodeKind::Directory(entries) => {
                h.mix(b"D");
                // BTreeMap iteration is already deterministic byte order.
                for (name, &child) in entries {
                    if name.as_slice() == b"." || name.as_slice() == b".." {
                        continue;
                    }
                    let saved = path.len();
                    path.push(b'/');
                    path.extend_from_slice(name);
                    self.digest_walk(path, child, h);
                    path.truncate(saved);
                }
            }
            InodeKind::Symlink(target) => {
                h.mix(b"L");
                h.mix(target);
            }
            InodeKind::CharDevice(dev) => {
                h.mix(b"C");
                h.mix(&dev.to_le_bytes());
            }
            InodeKind::Fifo(_) => h.mix(b"P"),
            InodeKind::Socket => h.mix(b"S"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: Timeval = Timeval { sec: 500, usec: 0 };
    const U: Cred = Cred { uid: 100, gid: 100 };

    fn fs() -> Fs {
        Fs::new(NOW)
    }

    fn mk(fs: &mut Fs, p: &[u8]) -> Ino {
        let (d, b) = fs.resolve_parent(ROOT_INO, p, Cred::ROOT).unwrap();
        fs.create_file(d, &b, 0o644, Cred::ROOT, NOW).unwrap()
    }

    fn mkd(fs: &mut Fs, p: &[u8]) -> Ino {
        let (d, b) = fs.resolve_parent(ROOT_INO, p, Cred::ROOT).unwrap();
        fs.mkdir(d, &b, 0o755, Cred::ROOT, NOW).unwrap()
    }

    #[test]
    fn root_resolves_to_itself() {
        let f = fs();
        assert_eq!(f.resolve(ROOT_INO, b"/", Cred::ROOT).unwrap().ino, ROOT_INO);
        assert_eq!(
            f.resolve(ROOT_INO, b"/.", Cred::ROOT).unwrap().ino,
            ROOT_INO
        );
        assert_eq!(
            f.resolve(ROOT_INO, b"/..", Cred::ROOT).unwrap().ino,
            ROOT_INO
        );
    }

    #[test]
    fn create_and_resolve_nested() {
        let mut f = fs();
        mkd(&mut f, b"/usr");
        mkd(&mut f, b"/usr/bin");
        let file = mk(&mut f, b"/usr/bin/cc");
        assert_eq!(
            f.resolve(ROOT_INO, b"/usr/bin/cc", Cred::ROOT).unwrap().ino,
            file
        );
        assert_eq!(
            f.resolve(ROOT_INO, b"/usr/./bin/../bin/cc", Cred::ROOT)
                .unwrap()
                .ino,
            file
        );
    }

    #[test]
    fn relative_resolution_from_cwd() {
        let mut f = fs();
        let usr = mkd(&mut f, b"/usr");
        let file = mk(&mut f, b"/usr/motd");
        assert_eq!(f.resolve(usr, b"motd", Cred::ROOT).unwrap().ino, file);
        assert_eq!(
            f.resolve(usr, b"../usr/motd", Cred::ROOT).unwrap().ino,
            file
        );
    }

    #[test]
    fn missing_component_is_enoent_and_nondir_is_enotdir() {
        let mut f = fs();
        mk(&mut f, b"/file");
        assert_eq!(
            f.resolve(ROOT_INO, b"/nope", Cred::ROOT),
            Err(Errno::ENOENT)
        );
        assert_eq!(
            f.resolve(ROOT_INO, b"/file/sub", Cred::ROOT),
            Err(Errno::ENOTDIR)
        );
        assert_eq!(
            f.resolve(ROOT_INO, b"/file/", Cred::ROOT),
            Err(Errno::ENOTDIR)
        );
    }

    #[test]
    fn symlinks_follow_and_nofollow() {
        let mut f = fs();
        let file = mk(&mut f, b"/real");
        let link = f
            .symlink(ROOT_INO, b"ln", b"/real", Cred::ROOT, NOW)
            .unwrap();
        assert_eq!(f.resolve(ROOT_INO, b"/ln", Cred::ROOT).unwrap().ino, file);
        assert_eq!(
            f.resolve_nofollow(ROOT_INO, b"/ln", Cred::ROOT)
                .unwrap()
                .ino,
            link
        );
    }

    #[test]
    fn relative_symlink_resolves_from_its_directory() {
        let mut f = fs();
        mkd(&mut f, b"/a");
        let t = mk(&mut f, b"/a/target");
        let (d, b) = f.resolve_parent(ROOT_INO, b"/a/ln", Cred::ROOT).unwrap();
        f.symlink(d, &b, b"target", Cred::ROOT, NOW).unwrap();
        assert_eq!(f.resolve(ROOT_INO, b"/a/ln", Cred::ROOT).unwrap().ino, t);
    }

    #[test]
    fn symlink_loop_is_eloop() {
        let mut f = fs();
        f.symlink(ROOT_INO, b"x", b"/y", Cred::ROOT, NOW).unwrap();
        f.symlink(ROOT_INO, b"y", b"/x", Cred::ROOT, NOW).unwrap();
        assert_eq!(f.resolve(ROOT_INO, b"/x", Cred::ROOT), Err(Errno::ELOOP));
    }

    #[test]
    fn symlink_chain_within_limit_resolves() {
        let mut f = fs();
        let t = mk(&mut f, b"/t");
        let mut prev = b"/t".to_vec();
        for i in 0..MAXSYMLINKS {
            let name = format!("l{i}");
            f.symlink(ROOT_INO, name.as_bytes(), &prev, Cred::ROOT, NOW)
                .unwrap();
            prev = format!("/l{i}").into_bytes();
        }
        assert_eq!(f.resolve(ROOT_INO, &prev, Cred::ROOT).unwrap().ino, t);
    }

    #[test]
    fn search_permission_enforced() {
        let mut f = fs();
        let d = mkd(&mut f, b"/locked");
        mk(&mut f, b"/locked/secret");
        f.chmod(d, 0o700, Cred::ROOT, NOW).unwrap();
        assert_eq!(
            f.resolve(ROOT_INO, b"/locked/secret", U),
            Err(Errno::EACCES)
        );
        assert!(f.resolve(ROOT_INO, b"/locked/secret", Cred::ROOT).is_ok());
    }

    #[test]
    fn hard_links_share_data_and_count() {
        let mut f = fs();
        let ino = mk(&mut f, b"/a");
        f.write_at(ino, 0, b"shared", NOW).unwrap();
        f.link(ROOT_INO, b"b", ino, Cred::ROOT, NOW).unwrap();
        assert_eq!(f.get(ino).unwrap().meta.nlink, 2);
        let via_b = f.resolve(ROOT_INO, b"/b", Cred::ROOT).unwrap().ino;
        assert_eq!(via_b, ino);
        f.unlink(ROOT_INO, b"a", Cred::ROOT, NOW).unwrap();
        assert_eq!(f.get(ino).unwrap().meta.nlink, 1);
        assert_eq!(f.read_at(ino, 0, 16, NOW).unwrap(), b"shared");
        f.unlink(ROOT_INO, b"b", Cred::ROOT, NOW).unwrap();
        assert!(!f.exists(ino), "reclaimed at zero links");
    }

    #[test]
    fn unlinked_but_open_file_survives() {
        let mut f = fs();
        let ino = mk(&mut f, b"/tmpfile");
        f.write_at(ino, 0, b"data", NOW).unwrap();
        f.incref(ino);
        f.unlink(ROOT_INO, b"tmpfile", Cred::ROOT, NOW).unwrap();
        assert!(f.exists(ino), "open reference keeps it alive");
        assert_eq!(f.read_at(ino, 0, 4, NOW).unwrap(), b"data");
        f.decref(ino);
        assert!(!f.exists(ino));
    }

    #[test]
    fn link_to_directory_rejected() {
        let mut f = fs();
        let d = mkd(&mut f, b"/d");
        assert_eq!(
            f.link(ROOT_INO, b"d2", d, Cred::ROOT, NOW),
            Err(Errno::EPERM)
        );
    }

    #[test]
    fn unlink_directory_rejected() {
        let mut f = fs();
        mkd(&mut f, b"/d");
        assert_eq!(f.unlink(ROOT_INO, b"d", Cred::ROOT, NOW), Err(Errno::EPERM));
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut f = fs();
        mkd(&mut f, b"/d");
        mk(&mut f, b"/d/f");
        assert_eq!(
            f.rmdir(ROOT_INO, b"d", Cred::ROOT, NOW),
            Err(Errno::ENOTEMPTY)
        );
        f.unlink(
            f.resolve(ROOT_INO, b"/d", Cred::ROOT).unwrap().ino,
            b"f",
            Cred::ROOT,
            NOW,
        )
        .unwrap();
        assert!(f.rmdir(ROOT_INO, b"d", Cred::ROOT, NOW).is_ok());
        assert_eq!(f.resolve(ROOT_INO, b"/d", Cred::ROOT), Err(Errno::ENOENT));
    }

    #[test]
    fn mkdir_updates_parent_nlink() {
        let mut f = fs();
        let before = f.get(ROOT_INO).unwrap().meta.nlink;
        mkd(&mut f, b"/sub");
        assert_eq!(f.get(ROOT_INO).unwrap().meta.nlink, before + 1);
        f.rmdir(ROOT_INO, b"sub", Cred::ROOT, NOW).unwrap();
        assert_eq!(f.get(ROOT_INO).unwrap().meta.nlink, before);
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut f = fs();
        let a = mk(&mut f, b"/a");
        mk(&mut f, b"/b");
        f.rename(ROOT_INO, b"a", ROOT_INO, b"b", Cred::ROOT, NOW)
            .unwrap();
        assert_eq!(f.resolve(ROOT_INO, b"/b", Cred::ROOT).unwrap().ino, a);
        assert_eq!(f.resolve(ROOT_INO, b"/a", Cred::ROOT), Err(Errno::ENOENT));
    }

    #[test]
    fn rename_directory_updates_dotdot() {
        let mut f = fs();
        let d1 = mkd(&mut f, b"/d1");
        let d2 = mkd(&mut f, b"/d2");
        let sub = mkd(&mut f, b"/d1/sub");
        f.rename(d1, b"sub", d2, b"sub", Cred::ROOT, NOW).unwrap();
        assert_eq!(
            f.resolve(ROOT_INO, b"/d2/sub", Cred::ROOT).unwrap().ino,
            sub
        );
        assert_eq!(
            f.resolve(ROOT_INO, b"/d2/sub/..", Cred::ROOT).unwrap().ino,
            d2
        );
        // nlink moved from d1 to d2.
        assert_eq!(f.get(d1).unwrap().meta.nlink, 2);
        assert_eq!(f.get(d2).unwrap().meta.nlink, 3);
    }

    #[test]
    fn rename_into_own_subtree_rejected() {
        let mut f = fs();
        let d = mkd(&mut f, b"/d");
        let sub = mkd(&mut f, b"/d/sub");
        assert_eq!(
            f.rename(ROOT_INO, b"d", sub, b"oops", Cred::ROOT, NOW),
            Err(Errno::EINVAL)
        );
        assert_eq!(
            f.rename(ROOT_INO, b"d", d, b"self", Cred::ROOT, NOW),
            Err(Errno::EINVAL)
        );
    }

    #[test]
    fn rename_type_mismatches() {
        let mut f = fs();
        mk(&mut f, b"/file");
        mkd(&mut f, b"/dir");
        assert_eq!(
            f.rename(ROOT_INO, b"file", ROOT_INO, b"dir", Cred::ROOT, NOW),
            Err(Errno::EISDIR)
        );
        assert_eq!(
            f.rename(ROOT_INO, b"dir", ROOT_INO, b"file", Cred::ROOT, NOW),
            Err(Errno::ENOTDIR)
        );
    }

    #[test]
    fn rename_onto_self_is_noop() {
        let mut f = fs();
        let a = mk(&mut f, b"/a");
        f.rename(ROOT_INO, b"a", ROOT_INO, b"a", Cred::ROOT, NOW)
            .unwrap();
        assert_eq!(f.resolve(ROOT_INO, b"/a", Cred::ROOT).unwrap().ino, a);
    }

    #[test]
    fn rename_dir_onto_empty_dir_replaces() {
        let mut f = fs();
        let d1 = mkd(&mut f, b"/d1");
        mkd(&mut f, b"/d2");
        f.rename(ROOT_INO, b"d1", ROOT_INO, b"d2", Cred::ROOT, NOW)
            .unwrap();
        assert_eq!(f.resolve(ROOT_INO, b"/d2", Cred::ROOT).unwrap().ino, d1);
    }

    #[test]
    fn write_extends_and_zero_fills() {
        let mut f = fs();
        let ino = mk(&mut f, b"/f");
        f.write_at(ino, 4, b"xy", NOW).unwrap();
        assert_eq!(f.read_at(ino, 0, 16, NOW).unwrap(), b"\0\0\0\0xy");
        f.write_at(ino, 0, b"AB", NOW).unwrap();
        assert_eq!(f.read_at(ino, 0, 16, NOW).unwrap(), b"AB\0\0xy");
    }

    #[test]
    fn read_past_eof_is_empty() {
        let mut f = fs();
        let ino = mk(&mut f, b"/f");
        f.write_at(ino, 0, b"abc", NOW).unwrap();
        assert!(f.read_at(ino, 10, 5, NOW).unwrap().is_empty());
        assert_eq!(f.read_at(ino, 2, 5, NOW).unwrap(), b"c");
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut f = fs();
        let ino = mk(&mut f, b"/f");
        f.write_at(ino, 0, b"hello world", NOW).unwrap();
        f.truncate(ino, 5, NOW).unwrap();
        assert_eq!(f.read_at(ino, 0, 64, NOW).unwrap(), b"hello");
        f.truncate(ino, 8, NOW).unwrap();
        assert_eq!(f.read_at(ino, 0, 64, NOW).unwrap(), b"hello\0\0\0");
    }

    #[test]
    fn chmod_chown_permission_rules() {
        let mut f = fs();
        let ino = mk(&mut f, b"/f");
        f.chown(ino, U.uid, U.gid, Cred::ROOT, NOW).unwrap();
        assert!(f.chmod(ino, 0o600, U, NOW).is_ok(), "owner may chmod");
        let other = Cred::new(200, 200);
        assert_eq!(f.chmod(ino, 0o777, other, NOW), Err(Errno::EPERM));
        assert_eq!(f.chown(ino, 1, 1, U, NOW), Err(Errno::EPERM));
    }

    #[test]
    fn readdir_is_sorted_and_includes_dots() {
        let mut f = fs();
        mk(&mut f, b"/zeta");
        mk(&mut f, b"/alpha");
        let names: Vec<Vec<u8>> = f
            .readdir(ROOT_INO)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(
            names,
            vec![
                b".".to_vec(),
                b"..".to_vec(),
                b"alpha".to_vec(),
                b"zeta".to_vec()
            ]
        );
    }

    #[test]
    fn create_in_unwritable_dir_denied() {
        let mut f = fs();
        let d = mkd(&mut f, b"/ro");
        f.chmod(d, 0o555, Cred::ROOT, NOW).unwrap();
        assert_eq!(f.create_file(d, b"f", 0o644, U, NOW), Err(Errno::EACCES));
    }

    #[test]
    fn stats_counts_shapes() {
        let mut f = fs();
        mkd(&mut f, b"/d");
        let ino = mk(&mut f, b"/f");
        f.write_at(ino, 0, b"1234", NOW).unwrap();
        f.symlink(ROOT_INO, b"l", b"/f", Cred::ROOT, NOW).unwrap();
        let s = f.stats();
        assert_eq!(s.dirs, 2);
        assert_eq!(s.files, 1);
        assert_eq!(s.symlinks, 1);
        assert_eq!(s.bytes, 4);
    }

    #[test]
    fn content_digest_sees_bytes_but_not_times() {
        let mut a = fs();
        let mut b = fs();
        for f in [&mut a, &mut b] {
            mkd(f, b"/d");
            let ino = mk(f, b"/d/f");
            f.write_at(ino, 0, b"hello", NOW).unwrap();
        }
        assert_eq!(a.content_digest(), b.content_digest());

        // Touching only times leaves the digest fixed...
        let ino = a.resolve(ROOT_INO, b"/d/f", Cred::ROOT).unwrap().ino;
        let later = Timeval { sec: 900, usec: 7 };
        a.utimes(ino, later, later, Cred::ROOT, later).unwrap();
        assert_eq!(a.content_digest(), b.content_digest());

        // ...but changing one byte of content does not.
        a.write_at(ino, 0, b"jello", later).unwrap();
        assert_ne!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn snapshot_restore_rewinds_tree() {
        let mut f = fs();
        mkd(&mut f, b"/d");
        let ino = mk(&mut f, b"/d/f");
        f.write_at(ino, 0, b"original", NOW).unwrap();
        let digest = f.content_digest();
        let snap = f.snapshot();

        // Diverge: mutate data, metadata and the namespace.
        f.write_at(ino, 0, b"CHANGED!", NOW).unwrap();
        mk(&mut f, b"/extra");
        f.unlink(ROOT_INO, b"extra", Cred::ROOT, NOW).unwrap();
        mkd(&mut f, b"/d2");
        f.chmod(ino, 0o600, Cred::ROOT, NOW).unwrap();
        assert_ne!(f.content_digest(), digest);

        f.restore(&snap);
        assert_eq!(f.content_digest(), digest);
        assert_eq!(f.read_at(ino, 0, 64, NOW).unwrap(), b"original");
        assert_eq!(f.resolve(ROOT_INO, b"/d2", Cred::ROOT), Err(Errno::ENOENT));
    }

    #[test]
    fn snapshot_never_reuses_inos_after_restore() {
        let mut f = fs();
        let snap = f.snapshot();
        let a = mk(&mut f, b"/a");
        f.restore(&snap);
        let b = mk(&mut f, b"/b");
        // next_ino rewinds with the tree, so numbering is reproducible.
        assert_eq!(a, b);
    }

    #[test]
    fn content_digest_hashes_through_chunk_boundaries() {
        // A file written in awkward pieces must digest identically to the
        // same bytes written in one flat stroke: the file digest folds the
        // logical byte sequence, not the chunk layout.
        let mut pattern = Vec::new();
        for i in 0..3 * crate::pstore::CHUNK_SIZE + 17 {
            pattern.push((i % 251) as u8);
        }

        let mut flat = fs();
        let ino = mk(&mut flat, b"/f");
        flat.write_at(ino, 0, &pattern, NOW).unwrap();

        let mut pieced = fs();
        let ino2 = mk(&mut pieced, b"/f");
        // Write back-to-front in uneven spans so chunks are created by
        // hole-filling, then overwritten.
        let mid = pattern.len() / 2;
        pieced
            .write_at(ino2, mid as u64, &pattern[mid..], NOW)
            .unwrap();
        for (i, piece) in pattern[..mid].chunks(997).enumerate() {
            pieced.write_at(ino2, (i * 997) as u64, piece, NOW).unwrap();
        }
        assert_eq!(
            pieced.read_at(ino2, 0, pattern.len(), NOW).unwrap(),
            pattern
        );
        assert_eq!(flat.content_digest(), pieced.content_digest());

        // And the digest matches what a flat byte walk would produce: an
        // Fs whose file was truncated then rewritten contiguously.
        let mut rewritten = fs();
        let ino3 = mk(&mut rewritten, b"/f");
        rewritten.write_at(ino3, 0, &[0xAA; 5], NOW).unwrap();
        rewritten.truncate(ino3, 0, NOW).unwrap();
        rewritten.write_at(ino3, 0, &pattern, NOW).unwrap();
        assert_eq!(flat.content_digest(), rewritten.content_digest());
    }

    #[test]
    fn content_digest_is_the_same_warm_or_cold() {
        let build = || {
            let mut f = fs();
            mkd(&mut f, b"/d");
            for (i, name) in [&b"/d/a"[..], b"/d/b", b"/c"].into_iter().enumerate() {
                let ino = mk(&mut f, name);
                f.write_at(ino, 0, &vec![i as u8; 5000 * i + 1], NOW)
                    .unwrap();
            }
            f
        };
        let mut warm = build();
        let first = warm.content_digest();
        assert_eq!(
            warm.content_digest(),
            first,
            "cached digests change nothing"
        );
        assert_eq!(build().content_digest(), first);

        // A write into a warm file resets its cache; a branch that shares
        // the warm leaves agrees with a cold tree built in its final state.
        let branch = warm.clone();
        let ino = warm.resolve(ROOT_INO, b"/d/b", Cred::ROOT).unwrap().ino;
        warm.write_at(ino, 3, b"xyz", NOW).unwrap();
        let mut cold = build();
        let ino = cold.resolve(ROOT_INO, b"/d/b", Cred::ROOT).unwrap().ino;
        cold.write_at(ino, 3, b"xyz", NOW).unwrap();
        assert_eq!(warm.content_digest(), cold.content_digest());
        assert_ne!(warm.content_digest(), first);
        assert_eq!(branch.content_digest(), first);
    }

    #[test]
    fn content_digest_sees_names_modes_and_links() {
        let mut a = fs();
        let base = a.content_digest();

        let ino = mk(&mut a, b"/f");
        let after_create = a.content_digest();
        assert_ne!(base, after_create);

        a.chmod(ino, 0o600, Cred::ROOT, NOW).unwrap();
        let after_chmod = a.content_digest();
        assert_ne!(after_create, after_chmod);

        a.link(ROOT_INO, b"g", ino, Cred::ROOT, NOW).unwrap();
        let after_link = a.content_digest();
        assert_ne!(after_chmod, after_link);

        a.unlink(ROOT_INO, b"g", Cred::ROOT, NOW).unwrap();
        assert_eq!(a.content_digest(), after_chmod);
    }
}
