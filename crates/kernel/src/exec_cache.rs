//! The digest-keyed image cache behind `spawn` and `execve(2)` — a
//! *shareable* handle, so a fleet of tenant kernels warms it once.
//!
//! Decoding a 12-byte-per-insn image and re-running a lint gate on every
//! exec is pure waste under fork/exec storms (make8 re-execs the same
//! eight binaries over and over). [`ExecCache::prepare`] is the whole
//! prepare-to-execute pipeline — parse, gate verdict, decoded
//! `Arc<Vec<Insn>>`, and the fused program — memoized by the executable
//! file's content digest ([`FileContent::digest`]) plus the content itself.
//!
//! It prepares from the file, not from a copy of its bytes. The digest is
//! cached in the file's `Arc`'d trie leaf, so every kernel built from one
//! base VFS, and every exec of an unchanged file, reuses one computation.
//! A hit copies no image bytes and hashes nothing: it compares the file
//! with the entry's copy, chunk by chunk, and chunks the two share compare
//! by pointer.
//!
//! # The gate
//!
//! An optional exec gate — a host-installed veto consulted after the image
//! parses but before any address space is touched — is fixed when the
//! cache is made ([`ExecCache::gated`]) and never changes afterwards, so a
//! cached verdict is always the current gate's verdict. The canonical gate
//! is `ia_analyze::lint_gate`, which refuses images whose static lint
//! report contains errors.
//!
//! # Sharing
//!
//! An `ExecCache` is a cheap [`Arc`] handle: `clone()` yields a second
//! handle to the *same* cache, gate included. A solo kernel gets a private,
//! ungated cache from [`KernelBuilder::build`]; a fleet passes one handle to
//! every tenant's builder (`KernelBuilder::new().exec_cache(shared)`), so
//! the first tenant to exec an image decodes it and every later tenant
//! hits — and every tenant is refused exactly what the others are. The hit
//! path takes only a shared read lock (read-mostly by construction: execs
//! of already-seen images dominate); writers appear only on a miss.
//!
//! Digest collisions are handled by keeping the exact source content in
//! each entry and comparing it on lookup: simulated user input never gets
//! to alias another image.
//!
//! Like `FastPathStats`, the cache is host-side bookkeeping: never part of
//! the virtual-time model and never captured by snapshots — reconstructing
//! an entry is always semantically free, so sharing it cannot couple
//! tenants' observable state.
//!
//! [`KernelBuilder::build`]: crate::KernelBuilder::build

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use ia_abi::Errno;
use ia_vfs::FileContent;
use ia_vm::{FusedProgram, Image, Insn};

/// A fully prepared executable: the parsed image's data and entry point
/// (for segment loading), the decoded code every process running these
/// bytes shares, and the fused program the sliced engine executes.
#[derive(Debug)]
pub struct PreparedImage {
    /// The parsed image with its code moved out into [`Self::code`]: the
    /// data segment for `load_into`, and the entry point.
    pub image: Image,
    /// Decoded code, shared across processes (`Process::code`).
    pub code: Arc<Vec<Insn>>,
    /// Superinstruction rewrite of `code` (`Process::fused`).
    pub fused: Arc<FusedProgram>,
}

impl PreparedImage {
    /// Decodes nothing — takes an already-parsed image, moves its code
    /// into the shared `Arc` and derives the fused program once.
    #[must_use]
    pub fn prepare(mut image: Image) -> PreparedImage {
        let code = Arc::new(std::mem::take(&mut image.code));
        let fused = Arc::new(FusedProgram::fuse(&code));
        PreparedImage { image, code, fused }
    }
}

/// A veto over image execution: returning an errno refuses the exec with
/// that errno.
type ExecGate = dyn Fn(&Image) -> Result<(), Errno> + Send + Sync;

/// One memoized prepare outcome: the exact source content (collision
/// guard, sharing the file's chunks) and the outcome — including negative
/// verdicts (`ENOEXEC`, gate refusals), so a rejected image doesn't get
/// re-linted per exec either.
#[derive(Debug)]
struct Entry {
    content: FileContent,
    outcome: Result<Arc<PreparedImage>, Errno>,
}

/// The shared state behind every handle to one cache.
#[derive(Default)]
struct Inner {
    gate: Option<Box<ExecGate>>,
    map: RwLock<HashMap<u64, Vec<Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A handle to one digest-keyed prepare cache and its gate. `clone()`
/// shares both; see the module docs for the sharing contract.
#[derive(Clone, Default)]
pub struct ExecCache {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ExecCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCache")
            .field("gated", &self.inner.gate.is_some())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish_non_exhaustive()
    }
}

impl ExecCache {
    /// Entry-count bound; past it the cache resets rather than evicting
    /// piecemeal (images are small and storms reuse few distinct binaries).
    const MAX_IMAGES: usize = 256;

    /// A fresh, private, ungated cache (one handle; share it by cloning).
    #[must_use]
    pub fn new() -> ExecCache {
        ExecCache::default()
    }

    /// A fresh cache whose every exec is first put to `gate`: every kernel
    /// built over this cache (or a clone of it) refuses what `gate`
    /// refuses, with the gate's errno.
    #[must_use]
    pub fn gated(gate: impl Fn(&Image) -> Result<(), Errno> + Send + Sync + 'static) -> ExecCache {
        ExecCache {
            inner: Arc::new(Inner {
                gate: Some(Box::new(gate)),
                ..Inner::default()
            }),
        }
    }

    /// Whether `self` and `other` are handles to the same cache.
    #[must_use]
    pub fn shares_with(&self, other: &ExecCache) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Execs served from the cache (summed across all sharers).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Execs that had to decode (and lint) from scratch (all sharers).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// The prepare-to-execute pipeline for an executable file's content —
    /// parse, gate verdict, decode, fuse — memoized: a second exec of the
    /// same content reuses all four, or the same refusal. Only a miss
    /// copies the bytes out, to parse them.
    pub fn prepare(&self, file: &FileContent) -> Result<Arc<PreparedImage>, Errno> {
        let digest = file.digest();
        if let Some(outcome) = self.lookup(digest, file) {
            return outcome;
        }
        let outcome = Image::from_bytes(&file.to_vec()).and_then(|image| {
            if let Some(gate) = &self.inner.gate {
                gate(&image)?;
            }
            Ok(Arc::new(PreparedImage::prepare(image)))
        });
        self.insert(digest, file, outcome.clone());
        outcome
    }

    /// Looks up the memoized outcome for `file`, counting a hit on
    /// success. Takes only the shared read lock — the fleet's common case.
    fn lookup(&self, digest: u64, file: &FileContent) -> Option<Result<Arc<PreparedImage>, Errno>> {
        let map = self
            .inner
            .map
            .read()
            .expect("no panic while holding the cache lock");
        let entry = map.get(&digest)?.iter().find(|e| e.content == *file)?;
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry.outcome.clone())
    }

    /// Memoizes a freshly computed prepare outcome, counting the miss.
    /// Two sharers racing to insert the same content is harmless: entries
    /// under one digest are scanned in order and compared.
    fn insert(&self, digest: u64, file: &FileContent, outcome: Result<Arc<PreparedImage>, Errno>) {
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self
            .inner
            .map
            .write()
            .expect("no panic while holding the cache lock");
        if map.len() >= Self::MAX_IMAGES {
            map.clear();
        }
        map.entry(digest).or_default().push(Entry {
            content: file.clone(),
            outcome,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_file(marker: u64) -> FileContent {
        FileContent::from_vec(
            Image {
                entry: 0,
                code: vec![Insn::Li(0, marker), Insn::Halt],
                data: Vec::new(),
            }
            .to_bytes(),
        )
    }

    #[test]
    fn hit_returns_the_same_shared_code() {
        let c = ExecCache::new();
        let file = image_file(7);
        let a = c.prepare(&file).unwrap();
        let b = c.prepare(&file).unwrap();
        assert!(Arc::ptr_eq(&a.code, &b.code));
        assert!(Arc::ptr_eq(&a.fused, &b.fused));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn negative_verdicts_are_cached_too() {
        let c = ExecCache::new();
        let junk = FileContent::from_vec(b"not an image".to_vec());
        assert_eq!(c.prepare(&junk).err(), Some(Errno::ENOEXEC));
        assert_eq!(c.prepare(&junk).err(), Some(Errno::ENOEXEC));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn gate_refusals_are_cached_without_re_running_the_gate() {
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let c = ExecCache::gated(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
            Err(Errno::EPERM)
        });
        let file = image_file(3);
        assert_eq!(c.prepare(&file).err(), Some(Errno::EPERM));
        assert_eq!(c.prepare(&file).err(), Some(Errno::EPERM));
        assert_eq!(calls.load(Ordering::Relaxed), 1, "verdict memoized");
    }

    #[test]
    fn colliding_digests_are_separated_by_bytes() {
        // Two different byte strings that the cache must never conflate,
        // even if their digests were to collide.
        let c = ExecCache::new();
        let a = image_file(1);
        let b = image_file(2);
        let pa = c.prepare(&a).unwrap();
        let pb = c.prepare(&b).unwrap();
        assert_ne!(pa.code, pb.code);
        assert_eq!(c.prepare(&a).unwrap().code, pa.code);
    }

    #[test]
    fn cloned_handles_share_entries() {
        let warm = ExecCache::new();
        let tenant = warm.clone();
        assert!(warm.shares_with(&tenant));
        let file = image_file(9);
        warm.prepare(&file).unwrap();
        assert!(tenant.prepare(&file).is_ok(), "warmed by the other handle");
        assert_eq!((warm.hits(), warm.misses()), (1, 1));
    }
}
