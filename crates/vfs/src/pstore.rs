//! Persistent (versioned) storage primitives for the filesystem.
//!
//! Two structures give `Fs::snapshot()` its O(1) cost:
//!
//! * [`PVec`] — an Arc-based path-copying radix trie keyed by `u64`. Inode
//!   numbers are dense, sequential and never reused, which makes a radix
//!   trie the ideal persistent map: cloning is one `Arc` bump, and a
//!   mutation after a clone copies only the O(log₃₂ n) branch nodes on the
//!   path to the touched leaf, sharing everything else with the snapshot.
//!   [`PVec::diff`] walks two versions in parallel and skips every shared
//!   subtree, so "what changed since this snapshot" costs what changed.
//! * [`FileContent`] — regular-file bytes held as a vector of `Arc`'d
//!   chunks, so a write into a snapshotted file copies one chunk (at most
//!   [`CHUNK_SIZE`] bytes), not the whole file. Its [`Digest`] is
//!   cached beside the bytes, so every version sharing the file hashes it
//!   at most once.
//!
//! Both are plain value types: a "snapshot" is just a `clone()`.

use std::sync::{Arc, OnceLock};

use crate::digest::Digest;

/// Radix-trie fanout is 2^BITS.
const BITS: u32 = 5;
/// Children per branch node.
const FANOUT: usize = 1 << BITS;
/// Index mask at one trie level.
const MASK: u64 = FANOUT as u64 - 1;

/// A trie node. Values hang as `Arc<T>` off the bottom level (`Leaves`),
/// so a value costs its own size plus an `Arc` header, not a whole
/// 32-slot node, and a lookup takes no more pointer hops than levels.
#[derive(Debug, Clone)]
enum Node<T> {
    /// An inner level: 32 child nodes.
    Branch([Option<Arc<Node<T>>>; FANOUT]),
    /// The bottom level: 32 values.
    Leaves([Option<Arc<T>>; FANOUT]),
}

fn empty_slots<S>() -> [Option<Arc<S>>; FANOUT] {
    std::array::from_fn(|_| None)
}

/// A persistent map from `u64` keys to `T`, tuned for dense keys.
///
/// `clone()` is O(1); after a clone, the two copies share structure and a
/// mutation in one copies only the branch path it touches.
#[derive(Debug, Clone)]
pub struct PVec<T> {
    /// Covers keys below `FANOUT^height`: `Leaves` at height 1, a
    /// `Branch` above.
    root: Arc<Node<T>>,
    /// Node levels from the root down to the `Leaves` level (≥ 1).
    height: u32,
    /// Live entries.
    len: usize,
}

impl<T: Clone> Default for PVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> PVec<T> {
    /// An empty map.
    #[must_use]
    pub fn new() -> PVec<T> {
        PVec {
            root: Arc::new(Node::Leaves(empty_slots())),
            height: 1,
            len: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn fits(&self, key: u64) -> bool {
        self.height * BITS >= 64 || key < 1u64 << (self.height * BITS)
    }

    fn top_shift(&self) -> u32 {
        (self.height - 1) * BITS
    }

    /// Adds a level on top, putting the current root at slot 0 (old keys
    /// keep their positions: their new top-level index is 0).
    fn grow(&mut self) {
        let mut slots = empty_slots();
        slots[0] = Some(self.root.clone());
        self.root = Arc::new(Node::Branch(slots));
        self.height += 1;
    }

    /// Borrows the value at `key`.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&T> {
        if !self.fits(key) {
            return None;
        }
        let mut node: &Node<T> = &self.root;
        let mut shift = self.top_shift();
        loop {
            let idx = ((key >> shift) & MASK) as usize;
            match node {
                Node::Leaves(vals) => return vals[idx].as_deref(),
                Node::Branch(slots) => {
                    node = slots[idx].as_deref()?;
                    shift -= BITS;
                }
            }
        }
    }

    /// Mutably borrows the value at `key`, path-copying shared nodes (and
    /// the value itself, if shared) on the way down.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        if !self.fits(key) {
            return None;
        }
        let mut shift = self.top_shift();
        let mut node: &mut Node<T> = Arc::make_mut(&mut self.root);
        loop {
            let idx = ((key >> shift) & MASK) as usize;
            match node {
                Node::Leaves(vals) => return vals[idx].as_mut().map(Arc::make_mut),
                Node::Branch(slots) => {
                    node = Arc::make_mut(slots[idx].as_mut()?);
                    shift -= BITS;
                }
            }
        }
    }

    /// True if `key` is present.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `value` at `key`, returning any value it replaced.
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        while !self.fits(key) {
            self.grow();
        }
        let mut shift = self.top_shift();
        let mut node: &mut Node<T> = Arc::make_mut(&mut self.root);
        let replaced = loop {
            let idx = ((key >> shift) & MASK) as usize;
            match node {
                Node::Leaves(vals) => {
                    break vals[idx].replace(Arc::new(value)).map(Arc::unwrap_or_clone);
                }
                Node::Branch(slots) => {
                    shift -= BITS;
                    let child = slots[idx].get_or_insert_with(|| {
                        Arc::new(if shift == 0 {
                            Node::Leaves(empty_slots())
                        } else {
                            Node::Branch(empty_slots())
                        })
                    });
                    node = Arc::make_mut(child);
                }
            }
        };
        if replaced.is_none() {
            self.len += 1;
        }
        replaced
    }

    /// Removes and returns the value at `key`. Emptied nodes are left in
    /// place: keys are never reused, so pruning buys nothing.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        if !self.contains(key) {
            return None; // avoid path-copying on a miss
        }
        let mut shift = self.top_shift();
        let mut node: &mut Node<T> = Arc::make_mut(&mut self.root);
        let removed = loop {
            let idx = ((key >> shift) & MASK) as usize;
            match node {
                Node::Leaves(vals) => break vals[idx].take().map(Arc::unwrap_or_clone),
                Node::Branch(slots) => {
                    node = Arc::make_mut(slots[idx].as_mut()?);
                    shift -= BITS;
                }
            }
        };
        debug_assert!(removed.is_some());
        self.len -= 1;
        removed
    }

    /// Visits every live value in ascending key order.
    pub fn for_each<F: FnMut(&T)>(&self, mut f: F) {
        Self::walk(&self.root, &mut f);
    }

    fn walk<F: FnMut(&T)>(node: &Node<T>, f: &mut F) {
        match node {
            Node::Leaves(vals) => vals.iter().flatten().for_each(|v| f(v)),
            Node::Branch(slots) => {
                for child in slots.iter().flatten() {
                    Self::walk(child, f);
                }
            }
        }
    }

    /// Reports, in ascending key order, every key whose value `self` and
    /// `other` do not share, as `f(key, value in self, value in other)`.
    ///
    /// The two tries are walked in parallel and every node or value they
    /// share (`Arc::ptr_eq`) is skipped unentered, so after a `clone()`
    /// the walk costs O(changed keys × height), not O(len). Tries of
    /// different heights align as [`Self::insert`] grows them: the shorter
    /// one sits at slot 0 of the taller one's extra levels. A value that
    /// was path-copied but is still equal is reported too; callers compare
    /// values where that matters.
    pub fn diff<F: FnMut(u64, Option<&T>, Option<&T>)>(&self, other: &PVec<T>, mut f: F) {
        self.diff_visits(other, &mut f);
    }

    /// [`Self::diff`], returning how many node pairs the walk entered.
    fn diff_visits<F: FnMut(u64, Option<&T>, Option<&T>)>(
        &self,
        other: &PVec<T>,
        f: &mut F,
    ) -> usize {
        let level = self.height.max(other.height);
        Self::diff_rec(
            (Some(&self.root), self.height),
            (Some(&other.root), other.height),
            level,
            0,
            f,
        )
    }

    /// Diffs the nodes at one trie position of height `level` (1 for the
    /// `Leaves` level). Each side is a node and its own height, which is
    /// below `level` while the position lies in the other trie's extra
    /// top levels.
    fn diff_rec<F: FnMut(u64, Option<&T>, Option<&T>)>(
        a: (Option<&Arc<Node<T>>>, u32),
        b: (Option<&Arc<Node<T>>>, u32),
        level: u32,
        base: u64,
        f: &mut F,
    ) -> usize {
        if let (Some(x), Some(y)) = (a.0, b.0) {
            if Arc::ptr_eq(x, y) {
                return 0;
            }
        }
        if level == 1 {
            // Both sides are `Leaves` (or absent): heights never drop below 1.
            let (va, vb) = (Self::leaves(a.0), Self::leaves(b.0));
            for i in 0..FANOUT {
                match (
                    va.and_then(|v| v[i].as_ref()),
                    vb.and_then(|v| v[i].as_ref()),
                ) {
                    (None, None) => {}
                    (Some(x), Some(y)) if Arc::ptr_eq(x, y) => {}
                    (x, y) => f(base | i as u64, x.map(|v| &**v), y.map(|v| &**v)),
                }
            }
            return 1;
        }
        let shift = (level - 1) * BITS;
        let child_h = |h: u32| h.min(level - 1);
        let mut visits = 1;
        for i in 0..FANOUT {
            let (ca, cb) = (Self::slot(a, level, i), Self::slot(b, level, i));
            if ca.is_none() && cb.is_none() {
                continue;
            }
            visits += Self::diff_rec(
                (ca, child_h(a.1)),
                (cb, child_h(b.1)),
                level - 1,
                base | (i as u64) << shift,
                f,
            );
        }
        visits
    }

    fn leaves(node: Option<&Arc<Node<T>>>) -> Option<&[Option<Arc<T>>; FANOUT]> {
        match node.map(|n| &**n) {
            Some(Node::Leaves(vals)) => Some(vals),
            _ => None,
        }
    }

    /// Child node `i` of a `Branch`-level `side` seen from a position of
    /// height `level`: a node shorter than the position is its own slot 0
    /// (see [`Self::grow`]).
    fn slot(side: (Option<&Arc<Node<T>>>, u32), level: u32, i: usize) -> Option<&Arc<Node<T>>> {
        let (node, h) = side;
        let node = node?;
        if h < level {
            return (i == 0).then_some(node);
        }
        match &**node {
            Node::Branch(slots) => slots[i].as_ref(),
            Node::Leaves(_) => None,
        }
    }
}

/// Chunk granularity for [`FileContent`]. A write into a shared file
/// copies at most this many bytes per touched chunk.
pub const CHUNK_SIZE: usize = 4096;

/// Regular-file bytes as a sequence of `Arc`'d chunks with structural
/// sharing across snapshots.
///
/// Invariant: every chunk is exactly [`CHUNK_SIZE`] bytes except possibly
/// the last, and `len` is the sum of chunk lengths. Chunk boundaries are
/// therefore a deterministic function of `len`, never observable through
/// reads, writes, digests or equality.
#[derive(Debug, Clone, Default)]
pub struct FileContent {
    chunks: Vec<Arc<Vec<u8>>>,
    len: usize,
    /// The [`Digest`] of the bytes, filled by [`Self::digest`] and reset by
    /// every `&mut` method. The content lives in an `Arc`'d trie leaf, so
    /// one fill serves every snapshot and branch that shares the leaf.
    digest: OnceLock<u64>,
}

impl FileContent {
    /// An empty file.
    #[must_use]
    pub fn new() -> FileContent {
        FileContent::default()
    }

    /// Chunks a flat byte vector.
    #[must_use]
    pub fn from_vec(data: Vec<u8>) -> FileContent {
        let len = data.len();
        let chunks = data
            .chunks(CHUNK_SIZE)
            .map(|c| Arc::new(c.to_vec()))
            .collect();
        FileContent {
            chunks,
            len,
            digest: OnceLock::new(),
        }
    }

    /// Logical length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length file.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the whole file out as one flat vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// Bytes a read of up to `want` bytes at `off` gets: short (or none)
    /// past EOF.
    #[must_use]
    pub fn readable(&self, off: usize, want: usize) -> usize {
        self.len.saturating_sub(off).min(want)
    }

    /// Copies the bytes at `off` into `out`, straight from the chunks, and
    /// returns how many: [`Self::readable`] of `out.len()`.
    pub fn read_into(&self, off: usize, out: &mut [u8]) -> usize {
        let n = self.readable(off, out.len());
        let mut done = 0;
        while done < n {
            let pos = off + done;
            let chunk = &self.chunks[pos / CHUNK_SIZE];
            let co = pos % CHUNK_SIZE;
            let take = (n - done).min(chunk.len() - co);
            out[done..done + take].copy_from_slice(&chunk[co..co + take]);
            done += take;
        }
        n
    }

    /// The [`Digest`] of the file's bytes, computed on first use and
    /// cached until the next mutation.
    #[must_use]
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut h = Digest::new();
            for c in &self.chunks {
                h.mix(c);
            }
            h.finish()
        })
    }

    /// Grows (zero-filling) or shrinks the file to `new_len` bytes.
    pub fn resize(&mut self, new_len: usize) {
        self.digest.take();
        if new_len < self.len {
            let keep_chunks = new_len.div_ceil(CHUNK_SIZE);
            self.chunks.truncate(keep_chunks);
            if let Some(last) = self.chunks.last_mut() {
                let keep = new_len - (keep_chunks - 1) * CHUNK_SIZE;
                if last.len() > keep {
                    Arc::make_mut(last).truncate(keep);
                }
            }
        } else if new_len > self.len {
            // Top up the (possibly partial) last chunk first, then append
            // whole zero chunks.
            if !self.chunks.is_empty() {
                let base = (self.chunks.len() - 1) * CHUNK_SIZE;
                let target = (new_len - base).min(CHUNK_SIZE);
                let last = self.chunks.last_mut().expect("non-empty");
                if target > last.len() {
                    Arc::make_mut(last).resize(target, 0);
                }
            }
            let mut cur = match self.chunks.last() {
                Some(last) => (self.chunks.len() - 1) * CHUNK_SIZE + last.len(),
                None => 0,
            };
            while cur < new_len {
                let take = (new_len - cur).min(CHUNK_SIZE);
                self.chunks.push(Arc::new(vec![0u8; take]));
                cur += take;
            }
        }
        self.len = new_len;
    }

    /// Writes `data` at `off`, zero-filling any hole before it.
    pub fn write_at(&mut self, off: usize, data: &[u8]) {
        self.digest.take();
        let end = off + data.len();
        if end > self.len {
            self.resize(end);
        }
        let mut pos = off;
        let mut src = 0;
        while src < data.len() {
            let chunk = Arc::make_mut(&mut self.chunks[pos / CHUNK_SIZE]);
            let co = pos % CHUNK_SIZE;
            let take = (data.len() - src).min(chunk.len() - co);
            chunk[co..co + take].copy_from_slice(&data[src..src + take]);
            pos += take;
            src += take;
        }
    }
}

/// Equality is over the logical byte stream; the digest cache is ignored.
/// Shared chunks compare by pointer first, so snapshot-vs-branch
/// comparisons skip unchanged spans.
impl PartialEq for FileContent {
    fn eq(&self, other: &Self) -> bool {
        // The length invariant pins chunk boundaries, so equal lengths
        // mean directly comparable chunk vectors.
        self.len == other.len
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Eq for FileContent {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pvec_insert_get_remove() {
        let mut m: PVec<String> = PVec::new();
        assert!(m.is_empty());
        for i in 0..100u64 {
            assert_eq!(m.insert(i, format!("v{i}")), None);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(42).map(String::as_str), Some("v42"));
        assert_eq!(m.get(100), None);
        assert_eq!(m.insert(42, "new".into()).as_deref(), Some("v42"));
        assert_eq!(m.len(), 100);
        assert_eq!(m.remove(42).as_deref(), Some("new"));
        assert_eq!(m.remove(42), None);
        assert_eq!(m.len(), 99);
        assert_eq!(m.get(42), None);
    }

    #[test]
    fn pvec_grows_past_one_level() {
        let mut m: PVec<u64> = PVec::new();
        for i in 0..40_000u64 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 40_000);
        assert_eq!(m.get(39_999), Some(&119_997));
        assert_eq!(m.get(40_000), None);
        let mut seen = Vec::new();
        m.for_each(|v| seen.push(*v));
        assert_eq!(seen.len(), 40_000);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "ascending key order");
    }

    #[test]
    fn pvec_clone_shares_until_mutation() {
        let mut a: PVec<Vec<u8>> = PVec::new();
        for i in 0..1000u64 {
            a.insert(i, vec![i as u8]);
        }
        let b = a.clone();
        a.insert(5, b"mutated".to_vec());
        a.remove(7);
        assert_eq!(b.get(5), Some(&vec![5u8]), "snapshot unaffected");
        assert_eq!(b.get(7), Some(&vec![7u8]), "snapshot keeps removed key");
        assert_eq!(a.get(5).map(Vec::as_slice), Some(&b"mutated"[..]));
        assert_eq!(a.get(7), None);
    }

    #[test]
    fn pvec_get_mut_isolates_from_clone() {
        let mut a: PVec<u32> = PVec::new();
        a.insert(3, 30);
        let b = a.clone();
        *a.get_mut(3).unwrap() = 99;
        assert_eq!(*b.get(3).unwrap(), 30);
        assert_eq!(*a.get(3).unwrap(), 99);
    }

    fn read(f: &FileContent, off: usize, want: usize) -> Vec<u8> {
        let mut out = vec![0; f.readable(off, want)];
        f.read_into(off, &mut out);
        out
    }

    #[test]
    fn content_read_write_roundtrip() {
        let mut f = FileContent::new();
        f.write_at(0, b"hello world");
        assert_eq!(f.len(), 11);
        assert_eq!(read(&f, 0, 64), b"hello world");
        assert_eq!(read(&f, 6, 5), b"world");
        assert_eq!(read(&f, 11, 5), b"");
        assert_eq!(read(&f, usize::MAX, 5), b"");
        let mut across = FileContent::from_vec(vec![1; CHUNK_SIZE]);
        across.write_at(CHUNK_SIZE, b"23");
        assert_eq!(read(&across, CHUNK_SIZE - 1, 8), b"\x0123");
        f.write_at(6, b"chunk");
        assert_eq!(f.to_vec(), b"hello chunk");
    }

    #[test]
    fn content_hole_zero_fills() {
        let mut f = FileContent::new();
        f.write_at(CHUNK_SIZE + 3, b"xy");
        assert_eq!(f.len(), CHUNK_SIZE + 5);
        let flat = f.to_vec();
        assert!(flat[..CHUNK_SIZE + 3].iter().all(|&b| b == 0));
        assert_eq!(&flat[CHUNK_SIZE + 3..], b"xy");
    }

    #[test]
    fn content_resize_across_chunks() {
        let mut f = FileContent::from_vec(vec![7u8; 3 * CHUNK_SIZE + 10]);
        f.resize(CHUNK_SIZE + 1);
        assert_eq!(f.len(), CHUNK_SIZE + 1);
        assert_eq!(f.to_vec(), vec![7u8; CHUNK_SIZE + 1]);
        f.resize(2 * CHUNK_SIZE + 5);
        let flat = f.to_vec();
        assert_eq!(flat.len(), 2 * CHUNK_SIZE + 5);
        assert!(flat[..CHUNK_SIZE + 1].iter().all(|&b| b == 7));
        assert!(flat[CHUNK_SIZE + 1..].iter().all(|&b| b == 0));
        // Invariant: all chunks full except the last.
        let sizes: Vec<usize> = f.chunks.iter().map(|c| c.len()).collect();
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == CHUNK_SIZE));
    }

    #[test]
    fn content_clone_shares_untouched_chunks() {
        let mut a = FileContent::from_vec(vec![1u8; 10 * CHUNK_SIZE]);
        let b = a.clone();
        a.write_at(5 * CHUNK_SIZE + 1, b"z");
        assert_eq!(b.to_vec(), vec![1u8; 10 * CHUNK_SIZE], "snapshot intact");
        assert_ne!(a, b);
        let shared = a
            .chunks
            .iter()
            .zip(&b.chunks)
            .filter(|(x, y)| Arc::ptr_eq(x, y))
            .count();
        assert_eq!(shared, 9, "only the written chunk was copied");
    }

    #[test]
    fn content_eq_is_logical() {
        let a = FileContent::from_vec(b"abcdef".to_vec());
        let mut b = FileContent::new();
        b.write_at(0, b"abc");
        b.write_at(3, b"def");
        assert_eq!(a, b);
        b.write_at(5, b"X");
        assert_ne!(a, b);
    }

    /// Every key `diff` reports, as (key, old, new).
    fn diffs(a: &PVec<u64>, b: &PVec<u64>) -> Vec<(u64, Option<u64>, Option<u64>)> {
        let mut out = Vec::new();
        a.diff(b, |k, x, y| out.push((k, x.copied(), y.copied())));
        out
    }

    #[test]
    fn pvec_diff_of_a_clone_is_empty() {
        let mut a: PVec<u64> = PVec::new();
        for i in 0..5_000u64 {
            a.insert(i, i);
        }
        let b = a.clone();
        let mut visits = 0;
        assert_eq!(a.diff_visits(&b, &mut |_, _, _| visits += 1), 0);
        assert_eq!(visits, 0);
    }

    #[test]
    fn pvec_diff_reports_inserts_updates_and_removals() {
        let mut old: PVec<u64> = PVec::new();
        for i in 0..100u64 {
            old.insert(i, i);
        }
        let mut new = old.clone();
        new.insert(7, 700);
        new.remove(40);
        new.insert(100, 1);
        assert_eq!(
            diffs(&old, &new),
            vec![
                (7, Some(7), Some(700)),
                (40, Some(40), None),
                (100, None, Some(1)),
            ]
        );
        // The mirror image swaps the sides.
        assert_eq!(
            diffs(&new, &old),
            vec![
                (7, Some(700), Some(7)),
                (40, None, Some(40)),
                (100, Some(1), None),
            ]
        );
    }

    #[test]
    fn pvec_diff_aligns_tries_that_grew_after_the_snapshot() {
        // Under 32 keys the trie has one branch level; past 1,024 it has
        // three. The snapshot is the short trie, the live one the tall.
        let mut old: PVec<u64> = PVec::new();
        for i in 0..20u64 {
            old.insert(i, i);
        }
        let mut new = old.clone();
        new.insert(3, 33);
        new.remove(11);
        for i in 20..1_500u64 {
            new.insert(i, i);
        }
        assert_eq!(new.height, 3);
        let got = diffs(&old, &new);
        let mut want = vec![(3, Some(3), Some(33)), (11, Some(11), None)];
        want.extend((20..1_500u64).map(|i| (i, None, Some(i))));
        assert_eq!(got, want);
        let back: Vec<_> = diffs(&new, &old)
            .into_iter()
            .map(|(k, x, y)| (k, y, x))
            .collect();
        assert_eq!(back, want, "height order does not matter");

        // An unchanged short prefix under a taller root is still skipped:
        // the live trie's slot-0 chain shares the snapshot's root.
        let mut tall = old.clone();
        tall.insert(5_000, 1);
        assert_eq!(diffs(&old, &tall), vec![(5_000, None, Some(1))]);
        let visits = old.diff_visits(&tall, &mut |_, _, _| {});
        assert_eq!(
            visits, 4,
            "root, slot-0 branch, the new key's branch and leaves"
        );
    }

    #[test]
    fn pvec_diff_visits_only_the_changed_paths() {
        let mut old: PVec<u64> = PVec::new();
        for i in 0..40_000u64 {
            old.insert(i, i);
        }
        assert_eq!(old.height, 4);
        let mut new = old.clone();
        for k in [5u64, 17_000, 39_999] {
            *new.get_mut(k).unwrap() += 1;
        }
        let mut seen = Vec::new();
        let visits = old.diff_visits(&new, &mut |k, _, _| seen.push(k));
        assert_eq!(seen, vec![5, 17_000, 39_999]);
        // The root, plus one node per lower level for each changed key: at
        // most 1 + 3 × 3 of the trie's ~1,300 nodes.
        assert!(visits <= 1 + 3 * 3, "visited {visits} nodes");
    }

    #[test]
    fn content_digest_is_the_digest_of_the_bytes_and_resets_on_write() {
        let mut f = FileContent::from_vec(b"hello".to_vec());
        assert_eq!(f.digest(), Digest::of(b"hello"));
        f.write_at(0, b"J");
        assert_eq!(f.digest(), Digest::of(b"Jello"));
        f.write_at(5, b"!");
        assert_eq!(f.digest(), Digest::of(b"Jello!"));
    }

    #[test]
    fn content_digest_resets_on_resize() {
        let mut f = FileContent::from_vec(vec![9u8; CHUNK_SIZE + 10]);
        let _ = f.digest();
        f.resize(3);
        assert_eq!(f.digest(), Digest::of(&[9, 9, 9]));
        f.resize(5);
        assert_eq!(f.digest(), Digest::of(&[9, 9, 9, 0, 0]));
        f.resize(0);
        assert_eq!(f.digest(), Digest::of(b""));
    }

    /// The cached digest always equals the digest of the flat bytes,
    /// across writes, resizes and truncations on and across chunk
    /// boundaries, and across clones that share chunks.
    #[test]
    fn content_digest_is_the_flat_digest_after_every_mutation() {
        let lens = [0, 1, 7, 8, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1];
        ia_prng::run_cases(40, |_, rng| {
            let mut f = FileContent::new();
            let mut flat: Vec<u8> = Vec::new();
            for _ in 0..24 {
                let at = rng.below(3) as usize * CHUNK_SIZE + *rng.pick(&lens);
                let len = *rng.pick(&lens);
                match rng.below(3) {
                    0 => {
                        let data = rng.bytes(len);
                        f.write_at(at, &data);
                        if flat.len() < at + data.len() {
                            flat.resize(at + data.len(), 0);
                        }
                        flat[at..at + data.len()].copy_from_slice(&data);
                    }
                    1 => {
                        f.resize(at);
                        flat.resize(at, 0);
                    }
                    _ => {
                        let copy = f.clone();
                        assert_eq!(copy.digest(), Digest::of(&flat), "a clone");
                    }
                }
                assert_eq!(f.to_vec(), flat);
                assert_eq!(f.digest(), Digest::of(&flat));
            }
        });
    }

    #[test]
    fn content_digest_of_a_clone_stays_isolated() {
        let mut a = FileContent::from_vec(b"shared".to_vec());
        let warm = a.digest();
        let b = a.clone();
        a.write_at(0, b"S");
        assert_eq!(b.digest(), warm, "the clone keeps its cached digest");
        assert_eq!(a.digest(), Digest::of(b"Shared"));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn content_eq_ignores_the_digest_cache() {
        let warm = FileContent::from_vec(b"same".to_vec());
        let _ = warm.digest();
        let cold = FileContent::from_vec(b"same".to_vec());
        assert_eq!(warm, cold);
        assert_eq!(cold, warm);
    }
}
