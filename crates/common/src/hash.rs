//! A fast, non-cryptographic hasher (FxHash) and hash-collection aliases.
//!
//! The engine hashes small integer keys (term ids, packed join keys) billions
//! of times during rank joins; SipHash's HashDoS resistance buys nothing on an
//! in-process analytical workload and costs real time. This is the same
//! multiply-xor scheme used by `rustc` (the `rustc-hash` crate), implemented
//! here to keep the workspace dependency-free.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;
/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The FxHash streaming hasher: `state = (state.rotl(5) ^ word) * SEED`.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Convenience: hash one value with FxHash.
pub fn fx_hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit checksum.
///
/// Unlike [`FxHasher`] (whose chunking strategy is an implementation detail
/// of the in-process hash maps), FNV-1a over individual bytes is a fixed,
/// portable function — the right choice for on-disk integrity checks like
/// the KG snapshot trailer, where the value must be stable across builds
/// and platforms.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// FNV-1a 64 over little-endian u64 *words* (zero-padded tail): the same
/// mixing as [`fnv1a_64`] but consuming 8 input bytes per multiply, ~8×
/// faster on large buffers. The word order and padding are part of the
/// definition, so the value is as portable as the byte-wise variant — this
/// is the checksum the version-1 KG snapshot trailer uses.
///
/// Note this is a different function than [`fnv1a_64`] — the word chunking
/// and the final length mix mean the two never agree (not even on the empty
/// input); both are stable, they are not interchangeable.
pub fn fnv1a_64_words(bytes: &[u8]) -> u64 {
    let mut h = Fnv64Stream::<1>::new();
    h.update(bytes);
    h.finish()
}

/// Eight interleaved [`fnv1a_64_words`]-style lanes folded into one digest.
///
/// A single FNV chain is latency-bound: every word waits on the previous
/// multiply, capping throughput near one word per multiply *latency*. Eight
/// independent lanes (lane `i` consumes words `i`, `i+8`, `i+16`, …) keep
/// the multiplier pipeline full and run close to one word per *cycle* —
/// roughly the multiplier's latency/throughput ratio faster on large
/// buffers, which is what the snapshot-v2 trailer hashes on every load.
/// Word `w` feeds lane `w % 8`, the final partial word is zero-padded, the
/// eight lane digests are folded through one more FNV chain and the total
/// byte length is mixed in last. Every step is fixed little-endian
/// arithmetic, so the value is as portable and stable as the single-chain
/// variants — and, like them, it agrees with neither.
pub fn fnv1a_64_lanes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64Stream::<8>::new();
    h.update(bytes);
    h.finish()
}

/// Incremental form of the word-wise FNV checksums: bytes may arrive in any
/// split and the digest is the same as hashing their concatenation at once.
/// `Fnv64Stream::<1>` computes [`fnv1a_64_words`], `Fnv64Stream::<8>`
/// computes [`fnv1a_64_lanes`]; the snapshot reader folds its trailer this
/// way while it streams a file.
#[derive(Debug, Clone)]
pub struct Fnv64Stream<const LANES: usize> {
    lanes: [u64; LANES],
    /// Full words consumed so far; word `w` feeds lane `w % LANES`.
    words: usize,
    /// Bytes of a word not yet complete.
    pending: [u8; 8],
    pending_len: usize,
    /// Total bytes consumed.
    len: u64,
}

impl<const LANES: usize> Default for Fnv64Stream<LANES> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const LANES: usize> Fnv64Stream<LANES> {
    /// A stream that has consumed no bytes.
    pub fn new() -> Self {
        const { assert!(LANES > 0, "an FNV stream needs at least one lane") };
        Fnv64Stream {
            lanes: [FNV64_OFFSET; LANES],
            words: 0,
            pending: [0; 8],
            pending_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let lane = &mut self.lanes[self.words % LANES];
        *lane = (*lane ^ w).wrapping_mul(FNV64_PRIME);
        self.words += 1;
    }

    /// Consumes `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            self.pending_len = 0;
            self.word(u64::from_le_bytes(self.pending));
        }
        // Single words until the next one lands in lane 0, then whole groups
        // with every lane independent (the pipelined fast path).
        let word_at =
            |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let mut at = 0;
        while self.words % LANES != 0 && bytes.len() - at >= 8 {
            self.word(word_at(at));
            at += 8;
        }
        let mut groups = bytes[at..].chunks_exact(8 * LANES);
        for group in &mut groups {
            for (lane, c) in self.lanes.iter_mut().zip(group.chunks_exact(8)) {
                let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
                *lane = (*lane ^ w).wrapping_mul(FNV64_PRIME);
            }
            self.words += LANES;
        }
        let mut words = groups.remainder().chunks_exact(8);
        for c in &mut words {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The digest of every byte consumed so far.
    pub fn finish(&self) -> u64 {
        let mut s = self.clone();
        if s.pending_len > 0 {
            s.pending[s.pending_len..].fill(0);
            s.word(u64::from_le_bytes(s.pending));
        }
        let mut h = if LANES == 1 {
            s.lanes[0]
        } else {
            s.lanes
                .iter()
                .fold(FNV64_OFFSET, |h, &l| (h ^ l).wrapping_mul(FNV64_PRIME))
        };
        // Mix the length so inputs differing only by trailing zero bytes
        // within the padded tail word still hash apart.
        h ^= s.len;
        h.wrapping_mul(FNV64_PRIME)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(fx_hash_one(&42u64), fx_hash_one(&42u64));
        assert_ne!(fx_hash_one(&42u64), fx_hash_one(&43u64));
    }

    #[test]
    fn map_basic_ops() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);
        m.remove(&1);
        assert!(!m.contains_key(&1));
    }

    #[test]
    fn set_dedup() {
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
        assert!(s.insert((2, 1)));
    }

    #[test]
    fn byte_stream_matches_chunked_writes() {
        // write() must consume 8-byte, 4-byte then single-byte chunks; verify
        // different split points of the same logical stream do not collide for
        // a few samples (sanity, not a cryptographic claim).
        let a = fx_hash_one(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9][..]);
        let b = fx_hash_one(&[1u8, 2, 3, 4, 5, 6, 7, 8, 10][..]);
        assert_ne!(a, b);
    }

    #[test]
    fn fnv1a_64_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a_64_sensitivity() {
        assert_ne!(fnv1a_64(b"abc"), fnv1a_64(b"abd"));
        assert_ne!(fnv1a_64(b"abc"), fnv1a_64(b"abc\0"));
    }

    #[test]
    fn fnv1a_64_words_is_stable_and_sensitive() {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        // Computed by hand so a regression in chunking, endianness or the
        // length mix shows up as a value change.
        assert_eq!(fnv1a_64_words(b""), OFFSET.wrapping_mul(PRIME));
        let w = u64::from_le_bytes(*b"abcdefgh");
        assert_eq!(
            fnv1a_64_words(b"abcdefgh"),
            ((OFFSET ^ w).wrapping_mul(PRIME) ^ 8).wrapping_mul(PRIME)
        );
        assert_ne!(fnv1a_64_words(b"abcdefgh"), fnv1a_64_words(b"abcdefgi"));
        // Tail padding still distinguishes lengths within the padded word.
        assert_ne!(fnv1a_64_words(b"ab"), fnv1a_64_words(b"ab\0"));
        // 12-byte buffer exercises word + tail.
        assert_ne!(
            fnv1a_64_words(b"abcdefgh1234"),
            fnv1a_64_words(b"abcdefgh1235")
        );
    }

    #[test]
    fn fnv1a_64_lanes_is_stable_and_sensitive() {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        // Hand-computed empty digest: eight untouched lanes folded, then the
        // zero length mixed in — pins the fold order and the length mix.
        let mut h = OFFSET;
        for _ in 0..8 {
            h = (h ^ OFFSET).wrapping_mul(PRIME);
        }
        assert_eq!(fnv1a_64_lanes(b""), h.wrapping_mul(PRIME));
        // One word lands entirely in lane 0.
        let w = u64::from_le_bytes(*b"abcdefgh");
        let mut h = OFFSET;
        h = (h ^ (OFFSET ^ w).wrapping_mul(PRIME)).wrapping_mul(PRIME);
        for _ in 0..7 {
            h = (h ^ OFFSET).wrapping_mul(PRIME);
        }
        assert_eq!(fnv1a_64_lanes(b"abcdefgh"), (h ^ 8).wrapping_mul(PRIME));
    }

    #[test]
    fn fnv1a_64_lanes_every_position_matters() {
        // Flip one byte at every offset of a buffer spanning full groups,
        // a round-robin tail and a padded partial word (8*16 + 13 bytes) —
        // each flip must change the digest, and trailing-zero extension must
        // hash apart (the length mix).
        let base: Vec<u8> = (0..(8 * 16 + 13)).map(|i| (i * 37 + 11) as u8).collect();
        let digest = fnv1a_64_lanes(&base);
        for i in 0..base.len() {
            let mut tweaked = base.clone();
            tweaked[i] ^= 0x40;
            assert_ne!(fnv1a_64_lanes(&tweaked), digest, "byte {i} ignored");
        }
        let mut extended = base.clone();
        extended.push(0);
        assert_ne!(fnv1a_64_lanes(&extended), digest);
        // And it is its own function, agreeing with neither single chain.
        assert_ne!(fnv1a_64_lanes(&base), fnv1a_64_words(&base));
        assert_ne!(fnv1a_64_lanes(&base), fnv1a_64(&base));
    }

    #[test]
    fn streams_agree_with_one_shot_for_every_split() {
        let base: Vec<u8> = (0..(8 * 16 + 13)).map(|i| (i * 37 + 11) as u8).collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, base.len()] {
            let bytes = &base[..len];
            for step in 1..=17 {
                let mut words = Fnv64Stream::<1>::new();
                let mut lanes = Fnv64Stream::<8>::new();
                for c in bytes.chunks(step) {
                    words.update(c);
                    lanes.update(c);
                }
                assert_eq!(
                    words.finish(),
                    fnv1a_64_words(bytes),
                    "len {len} step {step}"
                );
                assert_eq!(
                    lanes.finish(),
                    fnv1a_64_lanes(bytes),
                    "len {len} step {step}"
                );
            }
        }
    }

    #[test]
    fn distribution_smoke() {
        // Consecutive integers should not collapse to few buckets mod 1024.
        let mut buckets = [0u32; 1024];
        for i in 0..100_000u64 {
            buckets[(fx_hash_one(&i) % 1024) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        let min = *buckets.iter().min().unwrap();
        // Perfectly uniform would be ~97.6 per bucket; allow generous slack.
        assert!(max < 200, "max bucket {max}");
        assert!(min > 20, "min bucket {min}");
    }
}
