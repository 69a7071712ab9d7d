//! The content digest: one 64-bit hash shared by per-file content digests
//! ([`crate::FileContent::digest`]), the tree-wide
//! [`crate::Fs::content_digest`] and the kernel's exec-cache keys.
//!
//! It mixes a word (8 bytes, little-endian) per step with one folded
//! multiply: the 128-bit product of the state (xor the word) and an odd
//! constant, its two halves xored together. Bytes that do not fill a word
//! wait in the state, and the next piece's words are shifted in behind
//! them, so feeding a stream in pieces digests exactly as feeding it
//! whole, and a short piece (a path, a metadata field) costs a few shifts,
//! not a copy. File chunks ([`crate::CHUNK_SIZE`], a multiple of 8) never
//! leave bytes waiting. The length enters last, so trailing zero bytes
//! count.
//!
//! Only the equality of digests means anything: no digest value is
//! stored or compared across builds.

/// The state before the first word (the first hex digits of π).
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// The odd multiplier of every step (2^64 / φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One mixing step: the 128-bit product of `a` and `b`, folded to 64 bits.
const fn fold(a: u64, b: u64) -> u64 {
    let p = (a as u128) * (b as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Eight bytes as a little-endian word.
fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// Fewer than eight bytes as the low bytes of a little-endian word, the
/// rest zero. Two overlapping loads place every byte without a copy.
fn partial(b: &[u8]) -> u64 {
    let n = b.len();
    if n >= 4 {
        let lo = u32::from_le_bytes(b[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(b[n - 4..].try_into().expect("4 bytes"));
        u64::from(lo) | u64::from(hi) << ((n - 4) * 8)
    } else if n >= 2 {
        let lo = u16::from_le_bytes(b[..2].try_into().expect("2 bytes"));
        let hi = u16::from_le_bytes(b[n - 2..].try_into().expect("2 bytes"));
        u64::from(lo) | u64::from(hi) << ((n - 2) * 8)
    } else {
        b.first().map_or(0, |&x| u64::from(x))
    }
}

/// A digest state. Feeding a byte stream through [`Digest::mix`] in any
/// pieces gives the same [`Digest::finish`] as feeding it whole.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    /// The state after every whole word mixed so far.
    h: u64,
    /// The `len % 8` bytes after the last whole word, as the low bytes of
    /// a word whose other bytes are zero.
    tail: u64,
    /// Bytes mixed so far.
    len: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// A fresh state.
    #[must_use]
    pub const fn new() -> Digest {
        Digest {
            h: SEED,
            tail: 0,
            len: 0,
        }
    }

    /// Folds `bytes` into the state, a word at a time. When earlier
    /// pieces left bytes waiting, each word of `bytes` is shifted in
    /// behind them.
    #[inline]
    pub fn mix(&mut self, bytes: &[u8]) {
        let held = (self.len % 8) as u32 * 8;
        self.len += bytes.len() as u64;
        let mut words = bytes.chunks_exact(8);
        if held == 0 {
            for w in &mut words {
                self.h = fold(self.h ^ word(w), K);
            }
            self.tail = partial(words.remainder());
            return;
        }
        for w in &mut words {
            let w = word(w);
            self.h = fold(self.h ^ (self.tail | w << held), K);
            self.tail = w >> (64 - held);
        }
        let rest = words.remainder();
        let w = partial(rest);
        self.tail |= w << held;
        if held + rest.len() as u32 * 8 >= 64 {
            self.h = fold(self.h ^ self.tail, K);
            self.tail = w >> (64 - held);
        }
    }

    /// The digest of everything mixed so far: the waiting bytes as one
    /// zero-padded word, then the length.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut h = self.h;
        if !self.len.is_multiple_of(8) {
            h = fold(h ^ self.tail, K);
        }
        fold(h ^ self.len, K)
    }

    /// The digest of one byte slice.
    #[must_use]
    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.mix(bytes);
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic, patterned but not periodic buffer.
    fn bytes(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 7) as u8)
            .collect()
    }

    fn pieces(parts: &[&[u8]]) -> u64 {
        let mut d = Digest::new();
        for p in parts {
            d.mix(p);
        }
        d.finish()
    }

    /// The definition, spelled out: the zero-padded stream's words, then
    /// the length.
    fn reference(data: &[u8]) -> u64 {
        let mut padded = data.to_vec();
        padded.resize(data.len().div_ceil(8) * 8, 0);
        let h = padded.chunks(8).fold(SEED, |h, w| fold(h ^ word(w), K));
        fold(h ^ data.len() as u64, K)
    }

    #[test]
    fn digests_the_zero_padded_words_then_the_length() {
        for len in 0..=40 {
            let data = bytes(len);
            assert_eq!(Digest::of(&data), reference(&data), "len {len}");
        }
    }

    #[test]
    fn pieces_digest_like_the_whole_at_every_split_point() {
        for len in [0, 1, 7, 8, 9, 15, 16, 31, 32, 33, 4095, 4096, 4097] {
            let data = bytes(len);
            let whole = Digest::of(&data);
            for cut in 0..=len {
                let (a, b) = data.split_at(cut);
                assert_eq!(pieces(&[a, b]), whole, "len {len}, cut at {cut}");
            }
        }
    }

    #[test]
    fn three_pieces_digest_like_the_whole() {
        for len in [7, 8, 9, 31, 32, 33] {
            let data = bytes(len);
            let whole = Digest::of(&data);
            for i in 0..=len {
                for j in i..=len {
                    let parts = [&data[..i], &data[i..j], &data[j..]];
                    assert_eq!(pieces(&parts), whole, "len {len}, cuts {i}, {j}");
                }
            }
        }
    }

    #[test]
    fn a_single_bit_flip_at_any_byte_changes_the_digest() {
        let mut data = bytes(5 * 1024);
        let clean = Digest::of(&data);
        for i in 0..data.len() {
            let bit = 1 << (i % 8);
            data[i] ^= bit;
            assert_ne!(Digest::of(&data), clean, "bit {} of byte {i}", i % 8);
            data[i] ^= bit;
        }
    }

    #[test]
    fn appending_a_zero_byte_changes_the_digest() {
        for len in [0, 1, 7, 8, 9, 4096, 5 * 1024] {
            let mut data = bytes(len);
            let before = Digest::of(&data);
            data.push(0);
            assert_ne!(Digest::of(&data), before, "len {len}");
        }
    }
}
