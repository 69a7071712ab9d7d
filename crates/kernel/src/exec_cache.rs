//! The digest-keyed image cache behind `spawn` and `execve(2)` — a
//! *shareable* handle, so a fleet of tenant kernels warms it once.
//!
//! Decoding a 12-byte-per-insn image and re-running the [`ExecGate`] lint on
//! every exec is pure waste under fork/exec storms (make8 re-execs the same
//! eight binaries over and over). [`ExecCache`] memoizes the whole
//! prepare-to-execute pipeline — parse, gate verdict, decoded
//! `Arc<Vec<Insn>>`, and the fused program — keyed by the image bytes'
//! FNV-1a content digest ([`Fnv1a`], the VFS's digest family) *and the
//! gate generation*.
//!
//! # Sharing
//!
//! An `ExecCache` is a cheap [`Arc`] handle: `clone()` yields a second
//! handle to the *same* cache. A solo kernel gets a private cache from
//! [`KernelBuilder::build`]; a fleet passes one handle to every tenant's
//! builder (`KernelBuilder::new().exec_cache(shared)`), so the first tenant
//! to exec an image decodes it and every later tenant hits. The hit path
//! takes only a shared read lock (read-mostly by construction: execs of
//! already-seen images dominate); writers appear only on a miss or a gate
//! change.
//!
//! # Gate generations, including the shared case
//!
//! The gate generation is the staleness defense: [`Kernel::set_exec_gate`]
//! and [`Kernel::clear_exec_gate`] bump it (and drop every entry), so a gate
//! installed after an image was cached still vetoes it — a cached verdict
//! from another gate's era can never be replayed.
//!
//! When the cache is shared, the generation is shared too, and the
//! invalidation story is deliberately *global and conservative*:
//!
//! * [`KernelBuilder`] installs a tenant's gate **before** attaching the
//!   shared cache and does **not** bump the generation — spin-up of the
//!   N-th tenant must not evict what the first N−1 warmed. This is sound
//!   only because every sharer installs the *same* gate (or none): a
//!   cached verdict is then valid for every tenant. Sharing one cache
//!   between kernels with **different** gates is unsupported.
//! * A post-build [`Kernel::set_exec_gate`]/[`Kernel::clear_exec_gate`] on
//!   *any* sharer bumps the shared generation, invalidating every tenant's
//!   entries at once. That is the conservative sound choice: after a gate
//!   change somewhere, no stale verdict can replay anywhere, at the cost of
//!   every sharer re-warming under the new generation.
//!
//! Digest collisions are handled by keeping the exact source bytes in each
//! entry and comparing them on lookup: simulated user input never gets to
//! alias another image.
//!
//! Like `FastPathStats`, the cache is host-side bookkeeping: never part of
//! the virtual-time model and never captured by snapshots — reconstructing
//! an entry is always semantically free, so sharing it cannot couple
//! tenants' observable state.
//!
//! [`ExecGate`]: crate::kernel::ExecGate
//! [`Kernel::set_exec_gate`]: crate::Kernel::set_exec_gate
//! [`Kernel::clear_exec_gate`]: crate::Kernel::clear_exec_gate
//! [`KernelBuilder`]: crate::KernelBuilder
//! [`KernelBuilder::build`]: crate::KernelBuilder::build

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use ia_abi::Errno;
use ia_vfs::Fnv1a;
use ia_vm::{FusedProgram, Image, Insn};

/// A fully prepared executable: the parsed image (for segment loading and
/// gate re-checks), the decoded code every process running these bytes
/// shares, and the fused program the sliced engine executes.
#[derive(Debug)]
pub struct PreparedImage {
    /// The parsed image, for `load_into` and entry point.
    pub image: Image,
    /// Decoded code, shared across processes (`Process::code`).
    pub code: Arc<Vec<Insn>>,
    /// Superinstruction rewrite of `code` (`Process::fused`).
    pub fused: Arc<FusedProgram>,
}

impl PreparedImage {
    /// Decodes nothing — takes an already-parsed image and derives the
    /// shared code and fused program once.
    #[must_use]
    pub fn prepare(image: Image) -> PreparedImage {
        let code = Arc::new(image.code.clone());
        let fused = Arc::new(FusedProgram::fuse(&code));
        PreparedImage { image, code, fused }
    }
}

/// One memoized prepare outcome: the exact source bytes (collision guard),
/// the gate generation the verdict was computed under, and the outcome —
/// including negative verdicts (`ENOEXEC`, gate refusals), so a rejected
/// image doesn't get re-linted per exec either.
#[derive(Debug)]
struct Entry {
    bytes: Vec<u8>,
    gate_gen: u64,
    outcome: Result<Arc<PreparedImage>, Errno>,
}

/// The shared state behind every handle to one cache.
#[derive(Debug, Default)]
struct Inner {
    map: RwLock<HashMap<u64, Vec<Entry>>>,
    gate_gen: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A handle to one digest-keyed prepare cache. `clone()` shares; see the
/// module docs for the sharing and invalidation contract.
#[derive(Debug, Clone, Default)]
pub struct ExecCache {
    inner: Arc<Inner>,
}

impl ExecCache {
    /// Entry-count bound; past it the cache resets rather than evicting
    /// piecemeal (images are small and storms reuse few distinct binaries).
    const MAX_IMAGES: usize = 256;

    /// A fresh, private cache (one handle; share it by cloning).
    #[must_use]
    pub fn new() -> ExecCache {
        ExecCache::default()
    }

    /// Whether `self` and `other` are handles to the same cache.
    #[must_use]
    pub fn shares_with(&self, other: &ExecCache) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The current gate generation (for tests asserting invalidation).
    #[must_use]
    pub fn gate_gen(&self) -> u64 {
        self.inner.gate_gen.load(Ordering::Acquire)
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

    /// Looks up the prepare outcome for `bytes` under the current gate
    /// generation, counting a hit on success. Takes only the shared read
    /// lock — the fleet's common case.
    pub fn lookup(&self, bytes: &[u8]) -> Option<Result<Arc<PreparedImage>, Errno>> {
        let digest = Fnv1a::digest(bytes);
        let gen = self.inner.gate_gen.load(Ordering::Acquire);
        let map = self.inner.map.read().unwrap();
        let entry = map
            .get(&digest)?
            .iter()
            .find(|e| e.gate_gen == gen && e.bytes == bytes)?;
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
        Some(match &entry.outcome {
            Ok(p) => Ok(Arc::clone(p)),
            Err(e) => Err(*e),
        })
    }

    /// Memoizes a freshly computed prepare outcome, counting the miss.
    /// Two sharers racing to insert the same bytes is harmless: entries
    /// under one digest are scanned in order and byte-compared.
    pub fn insert(&self, bytes: &[u8], outcome: Result<Arc<PreparedImage>, Errno>) {
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let gen = self.inner.gate_gen.load(Ordering::Acquire);
        let mut map = self.inner.map.write().unwrap();
        if map.len() >= Self::MAX_IMAGES {
            map.clear();
        }
        map.entry(Fnv1a::digest(bytes)).or_default().push(Entry {
            bytes: bytes.to_vec(),
            gate_gen: gen,
            outcome,
        });
    }

    /// Called whenever the exec gate changes: bumps the generation so no
    /// stale verdict can match — on *any* sharer — and drops the
    /// now-unreachable entries.
    pub fn note_gate_change(&self) {
        let mut map = self.inner.map.write().unwrap();
        self.inner.gate_gen.fetch_add(1, Ordering::AcqRel);
        map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_bytes(marker: u64) -> Vec<u8> {
        Image {
            entry: 0,
            code: vec![Insn::Li(0, marker), Insn::Halt],
            data: Vec::new(),
        }
        .to_bytes()
    }

    fn prepare_ok(bytes: &[u8]) -> Result<Arc<PreparedImage>, Errno> {
        Ok(Arc::new(PreparedImage::prepare(
            Image::from_bytes(bytes).unwrap(),
        )))
    }

    #[test]
    fn hit_returns_the_same_shared_code() {
        let c = ExecCache::new();
        let bytes = image_bytes(7);
        assert!(c.lookup(&bytes).is_none());
        c.insert(&bytes, prepare_ok(&bytes));
        let a = c.lookup(&bytes).unwrap().unwrap();
        let b = c.lookup(&bytes).unwrap().unwrap();
        assert!(Arc::ptr_eq(&a.code, &b.code));
        assert!(Arc::ptr_eq(&a.fused, &b.fused));
        assert_eq!((c.hits(), c.misses()), (2, 1));
    }

    #[test]
    fn negative_verdicts_are_cached_too() {
        let c = ExecCache::new();
        c.insert(b"not an image", Err(Errno::ENOEXEC));
        assert!(matches!(
            c.lookup(b"not an image"),
            Some(Err(Errno::ENOEXEC))
        ));
    }

    #[test]
    fn gate_change_invalidates_everything() {
        let c = ExecCache::new();
        let bytes = image_bytes(7);
        c.insert(&bytes, prepare_ok(&bytes));
        assert!(c.lookup(&bytes).is_some());
        c.note_gate_change();
        assert_eq!(c.gate_gen(), 1);
        assert!(c.lookup(&bytes).is_none(), "stale verdict must not replay");
    }

    #[test]
    fn colliding_digests_are_separated_by_bytes() {
        // Force a collision by inserting under the same digest bucket: two
        // different byte strings that the cache must never conflate, even
        // if their digests were to collide.
        let c = ExecCache::new();
        let a = image_bytes(1);
        let b = image_bytes(2);
        c.insert(&a, prepare_ok(&a));
        c.insert(&b, prepare_ok(&b));
        let pa = c.lookup(&a).unwrap().unwrap();
        let pb = c.lookup(&b).unwrap().unwrap();
        assert_ne!(pa.image, pb.image);
    }

    #[test]
    fn cloned_handles_share_entries_and_generation() {
        let warm = ExecCache::new();
        let tenant = warm.clone();
        assert!(warm.shares_with(&tenant));
        let bytes = image_bytes(9);
        warm.insert(&bytes, prepare_ok(&bytes));
        let hit = tenant.lookup(&bytes).expect("warmed by the other handle");
        assert!(hit.is_ok());
        assert_eq!((warm.hits(), warm.misses()), (1, 1));
        // A gate change through EITHER handle invalidates both.
        tenant.note_gate_change();
        assert!(warm.lookup(&bytes).is_none());
        assert_eq!(warm.gate_gen(), 1);
    }
}
