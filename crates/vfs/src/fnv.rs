//! FNV-1a, 64-bit: the one digest family shared by per-file content
//! digests, the tree-wide [`crate::Fs::content_digest`] and the kernel's
//! exec-cache keys.

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64-bit hashing state. Mixing is byte-at-a-time, so feeding a
/// byte stream in pieces hashes identically to feeding it whole.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A fresh state at the offset basis.
    #[must_use]
    pub const fn new() -> Fnv1a {
        Fnv1a(OFFSET)
    }

    /// Folds `bytes` into the state.
    pub fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest of everything mixed so far.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }

    /// The digest of one byte slice.
    #[must_use]
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.mix(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(Fnv1a::digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn pieces_hash_like_the_whole() {
        let mut h = Fnv1a::new();
        h.mix(b"foo");
        h.mix(b"bar");
        assert_eq!(h.finish(), Fnv1a::digest(b"foobar"));
    }
}
