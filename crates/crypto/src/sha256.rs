//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Stellar uses SHA-256 pervasively: ledger-header chains, transaction-set
//! hashes, bucket hashing, and the `Hi(m) = SHA256(i ∥ b ∥ r ∥ m)` family of
//! leader-selection hash functions (paper §3.2.5). An incremental [`Sha256`]
//! hasher sits on one of two compression functions with identical output,
//! chosen per CPU at run time (see [`kernel`]): the x86-64 SHA extensions
//! where the CPU has them, else the portable FIPS 180-4 rounds, which are
//! also the tests' oracle. Both are validated against the NIST test vectors
//! in this module's tests.

use crate::Hash256;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use stellar_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finish().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled block awaiting compression.
    buf: [u8; 64],
    /// Number of valid bytes in `buf` (always < 64 between calls).
    buf_len: usize,
    /// Total message length in bytes so far.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Top up a partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }

        // Whole blocks straight from the input, then stash the tail.
        let (blocks, tail) = input.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Applies padding and returns the digest, consuming the hasher.
    pub fn finish(mut self) -> Hash256 {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, then zeros up to 56 mod 64 bytes, then the 64-bit
        // big-endian bit length written straight into the final block.
        self.update(&PAD[..1 + (119 - self.buf_len) % 64]);
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, std::slice::from_ref(&self.buf));

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Hash256(out)
    }
}

/// The padding's leading `0x80` and as many zeros as it can need.
const PAD: [u8; 64] = {
    let mut pad = [0u8; 64];
    pad[0] = 0x80;
    pad
};

/// Compresses `blocks` into `state` with the fastest kernel this CPU runs.
///
/// This is the workspace's one `unsafe` block.
#[allow(unsafe_code)]
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        // SAFETY: the kernel's only precondition is the CPU features it is
        // compiled for, and `available` has just detected every one of them.
        // It takes no raw pointers and indexes only checked slices.
        return unsafe { sha_ni::compress(state, blocks) };
    }
    portable(state, blocks)
}

/// Which compression this CPU runs: `"sha-ni"` or `"portable"`.
///
/// Benchmark documents record it, since hashing throughput differs several
/// times between the two while every digest stays the same.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        return "sha-ni";
    }
    "portable"
}

/// The FIPS 180-4 compression function, one block at a time.
fn portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression on Intel's SHA extensions (`sha256rnds2`, `sha256msg1`,
/// `sha256msg2`), built only from intrinsics that take no pointers.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every feature [`compress`] is compiled for.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Four consecutive words, the first in lane 0.
    #[target_feature(enable = "sse2")]
    fn lanes(w: [u32; 4]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// Message words `4q..4q + 4` of `block`, read big-endian.
    #[target_feature(enable = "sse2")]
    fn message(block: &[u8; 64], q: usize) -> __m128i {
        let word = |i: usize| {
            let b = &block[16 * q + 4 * i..16 * q + 4 * i + 4];
            u32::from_be_bytes([b[0], b[1], b[2], b[3]])
        };
        lanes([word(0), word(1), word(2), word(3)])
    }

    /// The same function as [`super::portable`], two rounds per instruction.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let [a, b, c, d, e, f, g, h] = *state;
        // The round instruction keeps the working variables as two vectors,
        // ABEF and CDGH, with A and C in the top lane.
        let mut abef = lanes([f, e, b, a]);
        let mut cdgh = lanes([h, g, d, c]);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // A window over the schedule: message words 4q..4q + 16.
            let (mut w0, mut w1, mut w2, mut w3) = (
                message(block, 0),
                message(block, 1),
                message(block, 2),
                message(block, 3),
            );
            for q in 0..16 {
                let wk = _mm_add_epi32(
                    w0,
                    lanes([K[4 * q], K[4 * q + 1], K[4 * q + 2], K[4 * q + 3]]),
                );
                // Two rounds per instruction; the old ABEF becomes CDGH.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]: msg1
                // adds the σ0 terms, alignr supplies W[t-7], msg2 adds σ1.
                // The last four groups compute words no round reads.
                let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
                (w0, w1, w2, w3) = (w1, w2, w3, _mm_sha256msg2_epu32(sum, w3));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|x| x as u32);
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST / well-known test vectors.
    const VECTORS: &[(&[u8], &str)] = &[
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];

    /// A compression function: [`compress`] (the dispatcher) or [`portable`].
    type Compress = fn(&mut [u32; 8], &[[u8; 64]]);

    /// SHA-256 of `msg` on `f`, with padding written out independently of
    /// [`Sha256`].
    fn digest_with(f: Compress, msg: &[u8]) -> Hash256 {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        f(&mut state, padded.as_chunks::<64>().0);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Hash256(out)
    }

    #[test]
    fn nist_vectors() {
        for (input, expect) in VECTORS {
            assert_eq!(&sha256(input).to_hex(), expect, "input {:?}", input);
        }
    }

    /// The dispatcher runs the SHA-NI kernel on a CPU that has it, so the
    /// portable rounds are checked here by name even there.
    #[test]
    fn nist_vectors_on_both_compressions() {
        for (f, name) in [(compress as Compress, kernel()), (portable, "portable")] {
            for (input, expect) in VECTORS {
                assert_eq!(
                    &digest_with(f, input).to_hex(),
                    expect,
                    "{name} on {input:?}"
                );
            }
        }
    }

    /// Differential test of the dispatcher against the portable rounds. On
    /// a CPU without SHA extensions both sides are portable.
    #[test]
    fn kernel_matches_portable_on_random_blocks() {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        for i in 0..10_000 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
            // Up to three blocks per call, so the kernel's carried state is
            // exercised as well as a single block.
            let mut blocks = vec![[0u8; 64]; 1 + i % 3];
            for block in &mut blocks {
                rng.fill_bytes(block);
            }
            let (mut fast, mut slow) = (state, state);
            compress(&mut fast, &blocks);
            portable(&mut slow, &blocks);
            assert_eq!(fast, slow, "{} diverges on pair {i}", kernel());
        }
    }

    /// One-shot and two-part hashing of every length up to 1 024 bytes,
    /// against the portable rounds behind the independent padding above.
    #[test]
    fn every_length_at_several_splits() {
        let data: Vec<u8> = (0u32..1024).map(|i| (i * 7 % 251) as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let expect = digest_with(portable, msg);
            assert_eq!(sha256(msg), expect, "one shot, length {len}");
            for split in [
                0,
                1,
                55,
                56,
                63,
                64,
                65,
                127,
                128,
                len / 2,
                len.saturating_sub(1),
            ] {
                let split = split.min(len);
                let mut h = Sha256::new();
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                assert_eq!(h.finish(), expect, "length {len} split at {split}");
            }
        }
    }

    #[test]
    fn million_a() {
        // The classic long-message vector: 1,000,000 repetitions of 'a'.
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finish().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn boundary_lengths() {
        // Lengths straddling the padding boundary must all be distinct and
        // stable; exercise 0..=130 byte messages.
        let data = [0xabu8; 130];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=130 {
            assert!(seen.insert(sha256(&data[..len])), "collision at {len}");
        }
    }
}
