//! From-scratch SHA-256 (FIPS 180-4) with a SHA-NI fast path.
//!
//! The paper observes that Fabric's throughput is "largely dominated by
//! cryptographic signature computations, network communication, and trust
//! validation" (§3, point d). To keep that cost profile in the simulator we
//! compute *real* hashes and MACs per transaction rather than stubbing them,
//! and we implement the primitive in-tree because the exercise forbids
//! external crypto crates.
//!
//! [`Sha256`] is the streaming construction over one of two block
//! compressors, picked when the hasher is created:
//!
//! * the *portable* compressor, the straightforward scalar rounds, which
//!   runs everywhere and is the differential oracle for the other one;
//! * `shani`, built on the `std::arch::x86_64` SHA intrinsics, chosen when
//!   the CPU reports `sha`, `sse4.1` and `ssse3` (six to nine times faster).
//!
//! Both give bit-identical digests: the tests run the NIST vectors and
//! random messages cut at random points through each of them. `shani` is
//! the only `unsafe` code in the crate.

use std::fmt;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the previous-hash of the genesis block.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Returns the digest as a byte slice.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Lower-case hex string of the digest.
    pub fn to_hex(&self) -> String {
        crate::ids::hex(&self.0)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The block compressor a [`Sha256`] runs.
#[derive(Clone, Copy, Debug)]
enum Backend {
    /// The scalar FIPS 180-4 rounds: runs everywhere, and is the oracle the
    /// tests hold the other backend to.
    Portable,
    /// The x86-64 SHA extensions ([`shani`]). Only [`Backend::shani`]
    /// constructs it, after the CPU has reported every feature the kernel
    /// is compiled for.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Backend {
    /// The fastest backend this CPU can run.
    fn detect() -> Backend {
        Backend::shani().unwrap_or(Backend::Portable)
    }

    /// The SHA-NI backend, if this CPU supports it.
    fn shani() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        if shani::supported() {
            return Some(Backend::ShaNi);
        }
        None
    }

    /// Runs the compression function over `blocks`, a whole number of
    /// 64-byte blocks, updating `state` in place.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Backend::Portable => compress_portable(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => {
                // SAFETY: `ShaNi` is only constructed by `Backend::shani`,
                // after `shani::supported()` confirmed that this CPU has
                // every target feature `shani::compress` is compiled for.
                #[allow(unsafe_code)]
                unsafe {
                    shani::compress(state, blocks)
                };
            }
        }
    }
}

/// Incremental SHA-256 hasher.
///
/// ```
/// use fabric_common::hash::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
    backend: Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher on the fastest compressor this CPU can run.
    pub fn new() -> Self {
        Self::with_backend(Backend::detect())
    }

    fn with_backend(backend: Backend) -> Self {
        Sha256 { state: H0, len: 0, buf: [0u8; 64], buf_len: 0, backend }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            self.backend.compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            self.backend.compress(&mut self.state, blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Convenience: update and return self (builder style).
    pub fn chain(mut self, data: &[u8]) -> Self {
        self.update(data);
        self
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // The buffered tail, 0x80, zeros to 56 mod 64, then the 64-bit bit
        // length: one block if the tail leaves room for 0x80 and the
        // length, two otherwise.
        let mut tail = [0u8; 128];
        let n = self.buf_len;
        tail[..n].copy_from_slice(&self.buf[..n]);
        tail[n] = 0x80;
        let end = if n < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        self.backend.compress(&mut self.state, &tail[..end]);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// The scalar compression function over whole 64-byte blocks.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
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
            let ch = (e & f) ^ ((!e) & g);
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

/// SHA-256 compression on the x86-64 SHA extensions (Intel SHA-NI).
///
/// The only `unsafe` code in the crate: [`compress`] is compiled with the
/// `sha`, `sse2`, `ssse3` and `sse4.1` target features, so it may run only
/// after [`supported`] has returned `true`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use std::arch::x86_64::*;

    use super::K;

    /// Whether this CPU has every target feature [`compress`] is compiled
    /// for.
    pub(super) fn supported() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Runs the compression function over `blocks`, a whole number of
    /// 64-byte blocks, updating `state` in place.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`, which
    /// [`supported`] checks.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Every unaligned load and store below stays in bounds: two 16-byte
        // halves of the 32-byte `state`, four of each 64-byte `block`, and
        // `K[4g..4g + 4]` for g < 16.

        // Swaps the bytes of each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // `sha256rnds2` keeps the state as the lane quadruples (a, b, e, f)
        // and (c, d, g, h), highest lane first.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        // Four rounds on message-word group `g` (words 4g..4g+4) in `w`.
        macro_rules! rounds4 {
            ($g:expr, $w:expr) => {{
                let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add(4 * $g).cast()));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }};
        }
        // The next message-word group from the last four (oldest first):
        // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], where msg1
        // adds the σ0 terms, alignr brings in W[t-7] and msg2 adds σ1.
        macro_rules! schedule {
            ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
                _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                    $w3,
                )
            };
        }

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap);
            rounds4!(0, w0);
            rounds4!(1, w1);
            rounds4!(2, w2);
            rounds4!(3, w3);
            for g in [4, 8, 12] {
                w0 = schedule!(w0, w1, w2, w3);
                rounds4!(g, w0);
                w1 = schedule!(w1, w2, w3, w0);
                rounds4!(g + 1, w1);
                w2 = schedule!(w2, w3, w0, w1);
                rounds4!(g + 2, w2);
                w3 = schedule!(w3, w0, w1, w2);
                rounds4!(g + 3, w3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), _mm_alignr_epi8(dchg, feba, 8));
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    Sha256::new().chain(data).finalize()
}

/// SHA-256 over the concatenation of several slices (avoids a copy).
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex_of(data: &[u8]) -> String {
        sha256(data).to_hex()
    }

    /// The portable backend, plus SHA-NI when this CPU has it (with a note
    /// on stderr, once, when it does not).
    fn backends() -> Vec<Backend> {
        static NOTE: std::sync::Once = std::sync::Once::new();
        let mut out = vec![Backend::Portable];
        match Backend::shani() {
            Some(b) => out.push(b),
            None => NOTE.call_once(|| {
                eprintln!("note: this CPU lacks SHA-NI; testing the portable SHA-256 compressor only")
            }),
        }
        out
    }

    /// Hashes `msg` on `backend`, fed in pieces ending at each of `cuts`.
    fn digest_on(backend: Backend, msg: &[u8], cuts: &[usize]) -> Digest {
        let mut h = Sha256::with_backend(backend);
        let mut at = 0;
        for &cut in cuts {
            h.update(&msg[at..cut]);
            at = cut;
        }
        h.update(&msg[at..]);
        h.finalize()
    }

    // Standard SHA-256 test vectors (FIPS 180-4 / NIST CAVP).
    #[test]
    fn empty_string() {
        assert_eq!(
            hex_of(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex_of(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex_of(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn four_block_message() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex_of(msg),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_of(&msg),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn fifty_five_and_fifty_six_byte_boundary() {
        // 55 bytes: padding fits in one block; 56 bytes: needs an extra block.
        assert_eq!(
            hex_of(&[b'x'; 55]),
            sha256(&[b'x'; 55]).to_hex(),
        );
        // Cross-check chunked vs one-shot at the boundary lengths.
        for n in [54usize, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let msg = vec![0xabu8; n];
            let mut h = Sha256::new();
            for chunk in msg.chunks(7) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), sha256(&msg), "length {n}");
        }
    }

    #[test]
    fn incremental_equals_oneshot_random_splits() {
        let msg: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(2654435761)) as u8).collect();
        let expect = sha256(&msg);
        for split in [1usize, 3, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for chunk in msg.chunks(split) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), expect, "split {split}");
        }
    }

    #[test]
    fn concat_matches_oneshot() {
        let d1 = sha256_concat(&[b"hello ", b"world"]);
        let d2 = sha256(b"hello world");
        assert_eq!(d1, d2);
    }

    #[test]
    fn digest_display_and_zero() {
        assert_eq!(Digest::ZERO.to_hex(), "0".repeat(64));
        let d = sha256(b"abc");
        assert_eq!(d.to_string(), d.to_hex());
        assert!(format!("{d:?}").starts_with("Digest(ba7816bf8f01"));
    }

    #[test]
    fn nist_vectors_on_every_backend() {
        let four_block = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (four_block, "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for backend in backends() {
            for (msg, hex) in vectors {
                assert_eq!(digest_on(backend, msg, &[]).to_hex(), hex, "{backend:?}");
                // Byte-at-a-time feeding drives every buffer path.
                let cuts: Vec<usize> = (1..msg.len().min(300)).collect();
                assert_eq!(digest_on(backend, msg, &cuts).to_hex(), hex, "{backend:?} bytewise");
            }
        }
    }

    #[test]
    fn padding_boundaries_agree_across_backends() {
        for n in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let msg: Vec<u8> = (0..n as u32).map(|i| i.wrapping_mul(40503) as u8).collect();
            let oracle = digest_on(Backend::Portable, &msg, &[]);
            for backend in backends() {
                assert_eq!(digest_on(backend, &msg, &[]), oracle, "{backend:?}, length {n}");
            }
        }
    }

    proptest! {
        /// Random messages of 0–4 KiB, fed in random pieces, hash the same
        /// on every backend as one-shot on the portable oracle.
        #[test]
        fn backends_agree_on_random_splits(
            msg in proptest::collection::vec(any::<u8>(), 0..4097),
            cuts in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (msg.len() + 1)).collect();
            cuts.sort_unstable();
            let oracle = digest_on(Backend::Portable, &msg, &[]);
            for backend in backends() {
                prop_assert_eq!(digest_on(backend, &msg, &cuts), oracle, "{:?}", backend);
            }
        }
    }
}
