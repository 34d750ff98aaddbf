//! SHA-256 implementation (FIPS 180-4).
//!
//! Used for object fingerprints (`objHash`), policy identifiers, enclave
//! measurements, HMAC and key derivation. The scalar implementation is a
//! direct, dependency-free transcription of the standard, validated against
//! the published test vectors; on x86-64 CPUs with the SHA extensions the
//! same function runs on `sha256rnds2` instead, chosen once at run time and
//! held to the scalar rounds by the differential tests below (see the
//! crate-level "Backends" section).
//!
//! # Midstates
//!
//! [`Sha256`] is `Clone`, and a clone is an exact snapshot of the chaining
//! state plus any buffered partial block. Code that repeatedly hashes a
//! common prefix (an HMAC pad block) absorbs the prefix once, keeps the hasher as a *midstate*, and clones it per use —
//! each clone costs a 100-byte memcpy instead of re-absorbing (and for
//! block-aligned prefixes, re-compressing) the prefix. `HmacKey` is built
//! on this; the digests produced through midstates are byte-identical to
//! hashing from scratch, which the property tests assert.

/// A SHA-256 digest (32 bytes).
pub type Digest = [u8; 32];

/// Process-wide compression-function counter.
///
/// Every 64-byte compression anywhere in the process is tallied in relaxed
/// atomics. Tests put a hard budget on the number of SHA-256
/// compressions an operation is allowed to spend, so digest-count
/// regressions (hashing the same bytes twice, redoing an HMAC key schedule)
/// fail CI instead of silently costing microseconds — and the cluster's
/// `/stats/digests` gauge reports the running total.
///
/// The counter is always on and always exact, but it is bumped once per
/// backend call by that call's block count, not once per block: with a
/// hardware compression at ~45 ns, a `fetch_add` per block on one shared
/// cache line is no longer noise — two clients hashing on two cores bounce
/// the line between them and it shows up as a third of a large put's crypto
/// time. One add per run of blocks keeps the line quiet and the total
/// identical. Each thread adds to a slot of its own (16, dealt
/// round-robin), each alone on its cache line and the one a prefetcher
/// pairs with it, so threads hashing at once share no line; a read sums.
pub mod ops {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    const SLOTS: usize = 16;

    #[repr(align(128))]
    struct Slot(AtomicU64);

    static COUNTS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
    static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
    }

    pub(super) fn add(blocks: usize) {
        // A destructor hashing after its thread's locals are gone: slot 0.
        let slot = SLOT.try_with(|slot| *slot).unwrap_or(0);
        if let Some(count) = COUNTS.get(slot) {
            count.0.fetch_add(blocks as u64, Ordering::Relaxed);
        }
    }

    /// Total compressions executed since process start (or the last
    /// [`reset`]).
    pub fn compressions() -> u64 {
        COUNTS.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Resets the counter to zero.
    pub fn reset() {
        for count in &COUNTS {
            count.0.store(0, Ordering::Relaxed);
        }
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

const BLOCK_LEN: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use pesos_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let digest = h.finalize();
/// assert_eq!(digest, pesos_crypto::sha256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new hasher with the standard initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partially full buffer first.
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == BLOCK_LEN {
                compress_blocks(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }

        // Hand the whole run of full blocks to the backend in one call,
        // straight from the input slice: the chaining state stays in
        // registers across blocks and the counter is bumped once.
        let full = input.len() - input.len() % BLOCK_LEN;
        if full > 0 {
            compress_blocks(&mut self.state, &input[..full]);
        }

        // Stash the remainder.
        let rest = &input[full..];
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Finalizes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);

        // Assemble the terminator, zero padding and length entirely on the
        // stack: one block if the buffered data leaves room for the 8-byte
        // length, two otherwise.
        let mut pad = [0u8; 2 * BLOCK_LEN];
        pad[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        pad[self.buffer_len] = 0x80;
        let total = if self.buffer_len < 56 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        pad[total - 8..total].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &pad[..total]);
        state_to_digest(&self.state)
    }
}

fn state_to_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Runs the compression function over every 64-byte block of `blocks`
/// (whose length must be a non-zero multiple of 64) on the fastest backend
/// this CPU has, and tallies the blocks once.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(!blocks.is_empty() && blocks.len().is_multiple_of(BLOCK_LEN));
    ops::add(blocks.len() / BLOCK_LEN);
    #[cfg(target_arch = "x86_64")]
    if let Some(hw) = shani::ShaNi::detect() {
        return hw.compress(state, blocks);
    }
    compress_scalar(state, blocks);
}

/// Name of the compression backend this process dispatches to: `"sha-ni"`
/// or `"scalar"`. Reporting only — nothing selects a backend but the CPU.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if shani::ShaNi::detect().is_some() {
        return "sha-ni";
    }
    "scalar"
}

/// The portable compression function: a direct transcription of FIPS 180-4
/// §6.2.2 over every 64-byte block of `blocks`. It is the only path on
/// CPUs without SHA extensions and the oracle the hardware backend is
/// tested against. Does not touch the [`ops`] counter.
pub(crate) fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
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

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// SHA-256 on the x86 SHA extensions (`sha256rnds2` / `sha256msg1` /
/// `sha256msg2`). All `unsafe` of the hash lives here: the call from
/// [`ShaNi::compress`] into the `#[target_feature]` kernel.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Proof that this CPU has every instruction set the kernels below are
    /// compiled for. The field is private and [`ShaNi::detect`] is the only
    /// constructor, so holding a value is the guard for the `unsafe` calls.
    #[derive(Clone, Copy)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// `Some` when the CPU advertises SHA, SSSE3 and SSE4.1. Probed once
        /// per process; afterwards one load.
        pub(super) fn detect() -> Option<ShaNi> {
            static DETECTED: OnceLock<bool> = OnceLock::new();
            DETECTED
                .get_or_init(|| {
                    is_x86_feature_detected!("sha")
                        && is_x86_feature_detected!("ssse3")
                        && is_x86_feature_detected!("sse4.1")
                })
                .then_some(ShaNi(()))
        }

        pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: `self` exists only if `detect` saw the `sha`, `ssse3`
            // and `sse4.1` features (SSE2 is baseline on x86-64), which is
            // all `compress_blocks` requires. It reads `blocks` and `state`
            // through the references it is given, within their lengths.
            unsafe { compress_blocks(state, blocks) }
        }
    }

    /// Chaining state in the register layout `sha256rnds2` works on.
    #[derive(Clone, Copy)]
    struct Lanes {
        abef: __m128i,
        cdgh: __m128i,
    }

    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn load_state(state: &[u32; 8]) -> Lanes {
        let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
        Lanes {
            abef: _mm_set_epi32(a, b, e, f),
            cdgh: _mm_set_epi32(c, d, g, h),
        }
    }

    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn store_state(lanes: Lanes) -> [u32; 8] {
        let Lanes { abef, cdgh } = lanes;
        [
            _mm_extract_epi32::<3>(abef) as u32,
            _mm_extract_epi32::<2>(abef) as u32,
            _mm_extract_epi32::<3>(cdgh) as u32,
            _mm_extract_epi32::<2>(cdgh) as u32,
            _mm_extract_epi32::<1>(abef) as u32,
            _mm_extract_epi32::<0>(abef) as u32,
            _mm_extract_epi32::<1>(cdgh) as u32,
            _mm_extract_epi32::<0>(cdgh) as u32,
        ]
    }

    /// The four message-schedule vectors of one block, as big-endian words.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn load_block(block: &[u8; BLOCK_LEN]) -> [__m128i; 4] {
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let mut w = [_mm_setzero_si128(); 4];
        for (v, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
            let le = u128::from_le_bytes(bytes.try_into().expect("chunk is 16 bytes"));
            // Compiles to one unaligned 16-byte load.
            *v = _mm_shuffle_epi8(_mm_set_epi64x((le >> 64) as i64, le as i64), swap);
        }
        w
    }

    /// Round constants `K[4i..4i + 4]`.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn k4(i: usize) -> __m128i {
        let k = &K[4 * i..4 * i + 4];
        _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32)
    }

    /// Four rounds on one lane with schedule vector `w` (K not yet added).
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn rounds4(lanes: &mut Lanes, w: __m128i, i: usize) {
        let wk = _mm_add_epi32(w, k4(i));
        lanes.cdgh = _mm_sha256rnds2_epu32(lanes.cdgh, lanes.abef, wk);
        lanes.abef = _mm_sha256rnds2_epu32(lanes.abef, lanes.cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    /// Next schedule vector `W[t..t + 4]` from the previous four.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn schedule(w: &[__m128i; 4]) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(w[0], w[1]);
        let w_minus_7 = _mm_alignr_epi8::<4>(w[3], w[2]);
        _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_minus_7), w[3])
    }

    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let mut lanes = load_state(state);
        for block in blocks.chunks_exact(BLOCK_LEN) {
            let block: &[u8; BLOCK_LEN] = block.try_into().expect("chunk is one block");
            let saved = lanes;
            let mut w = load_block(block);
            for i in 0..16 {
                if i >= 4 {
                    let next = schedule(&w);
                    w = [w[1], w[2], w[3], next];
                }
                rounds4(&mut lanes, w[i.min(3)], i);
            }
            lanes.abef = _mm_add_epi32(lanes.abef, saved.abef);
            lanes.cdgh = _mm_add_epi32(lanes.cdgh, saved.cdgh);
        }
        *state = store_state(lanes);
    }
}

/// Computes the SHA-256 digest of `data` in one call.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 of `data` on the portable scalar rounds, whatever the CPU has.
///
/// The oracle the dispatched path is held to, by this crate's differential
/// tests and by the bench harness's scalar-vs-dispatched line. It pads by
/// hand and shares nothing with [`Sha256`] but the scalar rounds. Nothing in
/// the system calls it to choose a backend.
pub fn sha256_scalar(data: &[u8]) -> Digest {
    let full = data.len() - data.len() % BLOCK_LEN;
    let rest = &data[full..];
    let mut tail = [0u8; 2 * BLOCK_LEN];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 {
        BLOCK_LEN
    } else {
        2 * BLOCK_LEN
    };
    tail[tail_len - 8..tail_len].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());

    ops::add((full + tail_len) / BLOCK_LEN);
    let mut state = H0;
    compress_scalar(&mut state, &data[..full]);
    compress_scalar(&mut state, &tail[..tail_len]);
    state_to_digest(&state)
}

/// Computes the SHA-256 digest of the concatenation of several slices.
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
    use crate::hex_encode;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_encode(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 13, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn midstate_clone_matches_fresh_hash() {
        // A cloned midstate (any prefix length, block-aligned or not) must
        // continue to exactly the digest of the concatenated input, and the
        // midstate itself must stay reusable across many clones.
        let prefix: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        for prefix_len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 200] {
            let mut mid = Sha256::new();
            mid.update(&prefix[..prefix_len]);
            for suffix_len in [0usize, 1, 8, 55, 64, 129] {
                let suffix = vec![0xabu8; suffix_len];
                let mut h = mid.clone();
                h.update(&suffix);
                let joined: Vec<u8> = prefix[..prefix_len]
                    .iter()
                    .chain(suffix.iter())
                    .copied()
                    .collect();
                assert_eq!(
                    h.finalize(),
                    sha256(&joined),
                    "prefix {prefix_len} suffix {suffix_len}"
                );
            }
        }
    }

    fn random_bytes(rng: &mut impl Rng, len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        rng.fill(&mut bytes);
        bytes
    }

    #[test]
    fn reports_selected_backend() {
        println!("sha256 backend: {}", backend());
        assert!(["sha-ni", "scalar"].contains(&backend()));
    }

    #[test]
    fn fips_vectors_through_the_scalar_oracle() {
        for (message, digest) in [
            (
                b"".as_slice(),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".as_slice(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".as_slice(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ] {
            assert_eq!(hex_encode(&sha256_scalar(message)), digest);
            assert_eq!(hex_encode(&sha256(message)), digest);
        }
    }

    #[test]
    fn dispatched_compression_matches_scalar_on_random_states() {
        // Random chaining states, not just H0: the state shuffles in and
        // out of the hardware register layout are what this pins. Runs of
        // one to five blocks cover the bulk loop's carry between blocks.
        let mut rng = StdRng::seed_from_u64(256);
        for case in 0..512 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.gen());
            let blocks = random_bytes(&mut rng, BLOCK_LEN * (1 + case % 5));

            let (mut dispatched, mut scalar) = (state, state);
            compress_blocks(&mut dispatched, &blocks);
            compress_scalar(&mut scalar, &blocks);
            assert_eq!(dispatched, scalar, "case {case}");
        }
    }

    #[test]
    fn dispatched_digests_match_scalar_at_every_length() {
        let mut rng = StdRng::seed_from_u64(300);
        let data = random_bytes(&mut rng, 64 * 1024);
        for len in (0..=300).chain([64 * 1024]) {
            let expected = sha256_scalar(&data[..len]);
            assert_eq!(sha256(&data[..len]), expected, "one-shot, len {len}");

            let split = if len == 0 { 0 } else { rng.gen_range(0..len) };
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..len]);
            assert_eq!(h.finalize(), expected, "len {len} split at {split}");
        }
    }

    #[test]
    fn concat_matches_joined() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(sha256_concat(&[a, b]), sha256(b"hello world"));
    }
}
