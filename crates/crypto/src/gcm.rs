//! AES-128-GCM (FIPS 197, NIST SP 800-38D) with 96-bit nonces and 128-bit
//! tags: the cipher under [`crate::AeadKey`].
//!
//! Two implementations compute the same function. On x86-64 CPUs with
//! AES-NI, PCLMULQDQ, SSSE3 and SSE4.1 the private `aesni` module runs the
//! counter mode eight blocks at a time and folds GHASH four blocks per
//! reduction against the precomputed powers H¹..H⁴; it is chosen once per
//! process by `is_x86_feature_detected!`. Everywhere else the portable path
//! runs: the byte-oriented AES of FIPS 197 §5.1 and the bit-serial
//! GF(2¹²⁸) multiply of SP 800-38D Algorithm 1. It is also the oracle the
//! hardware path is tested against. Neither touches the SHA-256
//! compression counter.

/// One 16-byte AES block.
type Block = [u8; 16];

/// An expanded AES-128-GCM key.
#[derive(Clone)]
pub(crate) struct Gcm {
    /// The eleven AES-128 round keys (FIPS 197 §5.2).
    round_keys: [Block; 11],
    /// H, H², H³ and H⁴ for the hash subkey H = AES_K(0¹²⁸), as field
    /// elements in the standard's byte order.
    h_powers: [Block; 4],
}

impl Gcm {
    pub(crate) fn new(key: &Block) -> Self {
        let round_keys = expand_key(key);
        let h = u128::from_be_bytes(encrypt_block(&round_keys, &[0; 16]));
        let mut power = h;
        let h_powers = std::array::from_fn(|i| {
            if i > 0 {
                power = gf_mul(power, h);
            }
            power.to_be_bytes()
        });
        Gcm {
            round_keys,
            h_powers,
        }
    }

    /// Encrypts `data` in place and returns the tag over `aad` and the
    /// ciphertext (GCM-AE, SP 800-38D §7.1).
    pub(crate) fn encrypt(&self, nonce: &[u8; 12], aad: &[u8], data: &mut [u8]) -> Block {
        self.apply::<false>(nonce, aad, data)
    }

    /// Decrypts `data` in place and returns the tag over `aad` and the
    /// ciphertext `data` held (GCM-AD, §7.2, in one pass). The caller
    /// compares it with the received tag before releasing the plaintext.
    pub(crate) fn decrypt(&self, nonce: &[u8; 12], aad: &[u8], data: &mut [u8]) -> Block {
        self.apply::<true>(nonce, aad, data)
    }

    fn apply<const DECRYPT: bool>(&self, nonce: &[u8; 12], aad: &[u8], data: &mut [u8]) -> Block {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = aesni::AesNi::detect() {
            return hw.apply::<DECRYPT>(self, nonce, aad, data);
        }
        self.apply_portable::<DECRYPT>(nonce, aad, data)
    }

    /// The portable twin: one block at a time, straight from the standards.
    fn apply_portable<const DECRYPT: bool>(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        data: &mut [u8],
    ) -> Block {
        let h = u128::from_be_bytes(self.h_powers[0]);
        let absorb =
            |hash: u128, block: &[u8]| gf_mul(hash ^ u128::from_be_bytes(zero_padded(block)), h);
        let mut hash = aad.chunks(16).fold(0, absorb);
        for (i, chunk) in data.chunks_mut(16).enumerate() {
            let counter = 2u32.wrapping_add(i as u32);
            let keystream = encrypt_block(&self.round_keys, &counter_block(nonce, counter));
            if DECRYPT {
                hash = absorb(hash, chunk);
            }
            for (byte, key) in chunk.iter_mut().zip(keystream) {
                *byte ^= key;
            }
            if !DECRYPT {
                hash = absorb(hash, chunk);
            }
        }
        hash = gf_mul(hash ^ lengths_block(aad.len(), data.len()), h);
        let mask = encrypt_block(&self.round_keys, &counter_block(nonce, 1));
        (hash ^ u128::from_be_bytes(mask)).to_be_bytes()
    }
}

/// Name of the AES-GCM kernel this process dispatches to: `"aes-ni"` or
/// `"portable"`. Reporting only — nothing selects a kernel but the CPU.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if aesni::AesNi::detect().is_some() {
        return "aes-ni";
    }
    "portable"
}

/// `nonce ‖ counter`: J₀ for counter 1, the keystream from counter 2 on.
fn counter_block(nonce: &[u8; 12], counter: u32) -> Block {
    let mut block = [0u8; 16];
    block[..12].copy_from_slice(nonce);
    block[12..].copy_from_slice(&counter.to_be_bytes());
    block
}

/// Up to 16 bytes, zero-padded to a block (the last partial block GHASH
/// absorbs, SP 800-38D §6.4).
fn zero_padded(bytes: &[u8]) -> Block {
    let mut block = [0u8; 16];
    block[..bytes.len()].copy_from_slice(bytes);
    block
}

/// The closing GHASH block: both lengths in bits, 64 bits each.
fn lengths_block(aad_len: usize, data_len: usize) -> u128 {
    ((aad_len as u128 * 8) << 64) | (data_len as u128 * 8)
}

/// X·Y in GF(2¹²⁸), SP 800-38D §6.3 Algorithm 1, one bit per step. Blocks
/// are read big-endian, so the standard's leftmost bit (the x⁰
/// coefficient) is the integer's top bit and "rightshift" is `>> 1`.
fn gf_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let (mut z, mut v) = (0u128, y);
    for i in (0..128).rev() {
        if (x >> i) & 1 == 1 {
            z ^= v;
        }
        v = if v & 1 == 1 { (v >> 1) ^ R } else { v >> 1 };
    }
    z
}

/// The AES S-box (FIPS 197 §5.1.1) from its definition: the inverse in
/// GF(2⁸), then the affine transformation.
const SBOX: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut x = 0;
    while x < 256 {
        // x²⁵⁴ = x⁻¹ (and 0 for 0), by square-and-multiply.
        let (mut inverse, mut base, mut exponent) = (1u8, x as u8, 254u8);
        while exponent != 0 {
            if exponent & 1 == 1 {
                inverse = gf256_mul(inverse, base);
            }
            base = gf256_mul(base, base);
            exponent >>= 1;
        }
        let b = inverse;
        table[x] =
            b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63;
        x += 1;
    }
    table
};

/// Multiplication by x in GF(2⁸) modulo x⁸ + x⁴ + x³ + x + 1 (§4.2.1).
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ ((b >> 7) * 0x1b)
}

const fn gf256_mul(mut a: u8, mut b: u8) -> u8 {
    let mut product = 0;
    while b != 0 {
        if b & 1 == 1 {
            product ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    product
}

/// KeyExpansion (FIPS 197 §5.2), one 16-byte round key at a time.
fn expand_key(key: &Block) -> [Block; 11] {
    let mut round_keys = [*key; 11];
    let mut rcon = 1u8;
    for r in 1..11 {
        let prev = round_keys[r - 1];
        // RotWord, SubWord and Rcon on the previous round key's last word.
        let mut word = [prev[13], prev[14], prev[15], prev[12]].map(|b| SBOX[b as usize]);
        word[0] ^= rcon;
        rcon = xtime(rcon);
        let next = &mut round_keys[r];
        for i in 0..16 {
            word[i % 4] ^= prev[i];
            next[i] = word[i % 4];
        }
    }
    round_keys
}

/// The AES-128 cipher (FIPS 197 §5.1) on one block. The state is the block
/// in memory order: byte `r + 4c` is row `r`, column `c`.
fn encrypt_block(round_keys: &[Block; 11], input: &Block) -> Block {
    let mut state = *input;
    for (round, key) in round_keys.iter().enumerate() {
        if round > 0 {
            let substituted = state.map(|b| SBOX[b as usize]);
            // ShiftRows: row r rotates left by r columns.
            state = std::array::from_fn(|i| substituted[(i + 4 * (i % 4)) % 16]);
            if round < 10 {
                mix_columns(&mut state);
            }
        }
        for (byte, k) in state.iter_mut().zip(key) {
            *byte ^= k;
        }
    }
    state
}

/// MixColumns (§5.1.3): each column times 3x³ + x² + x + 2.
fn mix_columns(state: &mut Block) {
    for column in state.chunks_exact_mut(4) {
        let [a0, a1, a2, a3] = [column[0], column[1], column[2], column[3]];
        let all = a0 ^ a1 ^ a2 ^ a3;
        column[0] ^= all ^ xtime(a0 ^ a1);
        column[1] ^= all ^ xtime(a1 ^ a2);
        column[2] ^= all ^ xtime(a2 ^ a3);
        column[3] ^= all ^ xtime(a3 ^ a0);
    }
}

/// AES-GCM on AES-NI and PCLMULQDQ. All `unsafe` of the AEAD lives here:
/// the one call from [`AesNi::apply`] into the `#[target_feature]` kernel.
///
/// GHASH follows Gueron and Kounavis ("Intel Carry-Less Multiplication
/// Instruction and its Usage for Computing the GCM Mode", rev. 2.02):
/// blocks are byte-reversed so the register holds the field element
/// bit-reflected, products are formed by four carry-less multiplies,
/// shifted left one bit and reduced in two phases. Four blocks share one
/// reduction: `Y ← (Y ⊕ C₁)·H⁴ ⊕ C₂·H³ ⊕ C₃·H² ⊕ C₄·H`.
#[cfg(target_arch = "x86_64")]
mod aesni {
    use super::{Block, Gcm};
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Proof that this CPU has every instruction set the kernel below is
    /// compiled for. The field is private and [`AesNi::detect`] is the only
    /// constructor, so holding a value is the guard for the `unsafe` call.
    #[derive(Clone, Copy)]
    pub(super) struct AesNi(());

    impl AesNi {
        /// `Some` when the CPU advertises AES, PCLMULQDQ, SSSE3 and SSE4.1.
        /// Probed once per process; afterwards one load.
        pub(super) fn detect() -> Option<AesNi> {
            static DETECTED: OnceLock<bool> = OnceLock::new();
            DETECTED
                .get_or_init(|| {
                    is_x86_feature_detected!("aes")
                        && is_x86_feature_detected!("pclmulqdq")
                        && is_x86_feature_detected!("ssse3")
                        && is_x86_feature_detected!("sse4.1")
                })
                .then_some(AesNi(()))
        }

        pub(super) fn apply<const DECRYPT: bool>(
            self,
            gcm: &Gcm,
            nonce: &[u8; 12],
            aad: &[u8],
            data: &mut [u8],
        ) -> Block {
            // SAFETY: `self` exists only if `detect` saw the `aes`,
            // `pclmulqdq`, `ssse3` and `sse4.1` features (SSE2 is baseline
            // on x86-64), which is all `apply` requires. It touches memory
            // only through the references it is given, within their
            // lengths.
            unsafe { apply::<DECRYPT>(gcm, nonce, aad, data) }
        }
    }

    /// 16 bytes in memory order (one unaligned load).
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn load(bytes: &Block) -> __m128i {
        let le = u128::from_le_bytes(*bytes);
        _mm_set_epi64x((le >> 64) as i64, le as i64)
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn store(v: __m128i) -> Block {
        let lo = _mm_cvtsi128_si64(v) as u64 as u128;
        let hi = _mm_extract_epi64::<1>(v) as u64 as u128;
        ((hi << 64) | lo).to_le_bytes()
    }

    /// Reverses the byte order: GHASH reads blocks big-endian.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn reflect(v: __m128i) -> __m128i {
        _mm_shuffle_epi8(
            v,
            _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        )
    }

    /// J₀ with its last word replaced by `n`, big-endian.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn counter(j0: __m128i, n: u32) -> __m128i {
        _mm_insert_epi32::<3>(j0, n.swap_bytes() as i32)
    }

    /// AES-128 on `N` independent blocks, round by round, so the `aesenc`
    /// latency of one block hides behind the others.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn encrypt<const N: usize>(round_keys: &[__m128i; 11], blocks: &mut [__m128i; N]) {
        for block in blocks.iter_mut() {
            *block = _mm_xor_si128(*block, round_keys[0]);
        }
        for key in &round_keys[1..10] {
            for block in blocks.iter_mut() {
                *block = _mm_aesenc_si128(*block, *key);
            }
        }
        for block in blocks.iter_mut() {
            *block = _mm_aesenclast_si128(*block, round_keys[10]);
        }
    }

    /// The unreduced carry-less product of two reflected field elements, as
    /// its low, middle and high 128-bit partial products.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn clmul(a: __m128i, b: __m128i) -> [__m128i; 3] {
        [
            _mm_clmulepi64_si128::<0x00>(a, b),
            _mm_xor_si128(
                _mm_clmulepi64_si128::<0x10>(a, b),
                _mm_clmulepi64_si128::<0x01>(a, b),
            ),
            _mm_clmulepi64_si128::<0x11>(a, b),
        ]
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn xor3(acc: &mut [__m128i; 3], product: [__m128i; 3]) {
        for (a, p) in acc.iter_mut().zip(product) {
            *a = _mm_xor_si128(*a, p);
        }
    }

    /// Reduces a sum of [`clmul`] products modulo x¹²⁸ + x⁷ + x² + x + 1.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn reduce([lo, mid, hi]: [__m128i; 3]) -> __m128i {
        let lo = _mm_xor_si128(lo, _mm_slli_si128::<8>(mid));
        let hi = _mm_xor_si128(hi, _mm_srli_si128::<8>(mid));

        // The product of two reflected operands is one bit short: shift
        // the 256-bit value `hi:lo` left by one.
        let lo_carries = _mm_srli_epi32::<31>(lo);
        let hi_carries = _mm_srli_epi32::<31>(hi);
        let across = _mm_srli_si128::<12>(lo_carries);
        let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(lo_carries));
        let hi = _mm_or_si128(
            _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(hi_carries)),
            across,
        );

        // First phase: fold the low half's x¹²⁸ multiples by x⁷ + x² + x.
        let folded = _mm_xor_si128(
            _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
            _mm_slli_epi32::<25>(lo),
        );
        let spill = _mm_srli_si128::<4>(folded);
        let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(folded));

        // Second phase.
        let shifted = _mm_xor_si128(
            _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
            _mm_xor_si128(_mm_srli_epi32::<7>(lo), spill),
        );
        _mm_xor_si128(hi, _mm_xor_si128(lo, shifted))
    }

    /// One GHASH step: `(acc ⊕ block)·H`.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn ghash1(acc: __m128i, block: __m128i, h: __m128i) -> __m128i {
        reduce(clmul(_mm_xor_si128(acc, block), h))
    }

    /// Four GHASH steps with one reduction.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn ghash4(acc: __m128i, blocks: [__m128i; 4], h: &[__m128i; 4]) -> __m128i {
        let mut sum = clmul(_mm_xor_si128(acc, blocks[0]), h[3]);
        xor3(&mut sum, clmul(blocks[1], h[2]));
        xor3(&mut sum, clmul(blocks[2], h[1]));
        xor3(&mut sum, clmul(blocks[3], h[0]));
        reduce(sum)
    }

    /// GHASH over `bytes`, the last partial block zero-padded.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn ghash_bytes(mut acc: __m128i, bytes: &[u8], h: &[__m128i; 4]) -> __m128i {
        let mut groups = bytes.chunks_exact(64);
        for group in &mut groups {
            let mut blocks = [_mm_setzero_si128(); 4];
            for (block, chunk) in blocks.iter_mut().zip(group.chunks_exact(16)) {
                *block = reflect(load(&super::zero_padded(chunk)));
            }
            acc = ghash4(acc, blocks, h);
        }
        for chunk in groups.remainder().chunks(16) {
            acc = ghash1(acc, reflect(load(&super::zero_padded(chunk))), h[0]);
        }
        acc
    }

    /// GCM-AE (`DECRYPT = false`) or GCM-AD over `data` in place; returns
    /// the tag over `aad` and the ciphertext.
    ///
    /// # Safety
    ///
    /// The CPU must support `aes`, `pclmulqdq`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    unsafe fn apply<const DECRYPT: bool>(
        gcm: &Gcm,
        nonce: &[u8; 12],
        aad: &[u8],
        data: &mut [u8],
    ) -> Block {
        let mut round_keys = [_mm_setzero_si128(); 11];
        for (reg, key) in round_keys.iter_mut().zip(&gcm.round_keys) {
            *reg = load(key);
        }
        let mut h = [_mm_setzero_si128(); 4];
        for (reg, power) in h.iter_mut().zip(&gcm.h_powers) {
            *reg = reflect(load(power));
        }
        let j0 = load(&super::counter_block(nonce, 1));
        let mut acc = ghash_bytes(_mm_setzero_si128(), aad, &h);

        // Eight counter blocks in flight, then their ciphertext hashed as
        // two groups of four.
        let mut next = 2u32;
        let mut groups = data.chunks_exact_mut(128);
        for group in &mut groups {
            let mut keystream = [_mm_setzero_si128(); 8];
            for (i, block) in keystream.iter_mut().enumerate() {
                *block = counter(j0, next.wrapping_add(i as u32));
            }
            next = next.wrapping_add(8);
            encrypt(&round_keys, &mut keystream);
            let mut hashed = [_mm_setzero_si128(); 8];
            for ((chunk, key), hashed) in group
                .chunks_exact_mut(16)
                .zip(keystream)
                .zip(hashed.iter_mut())
            {
                let bytes: &mut Block = chunk.try_into().expect("chunk is one block");
                let input = load(bytes);
                let output = _mm_xor_si128(input, key);
                *bytes = store(output);
                *hashed = reflect(if DECRYPT { input } else { output });
            }
            let [c0, c1, c2, c3, c4, c5, c6, c7] = hashed;
            acc = ghash4(acc, [c0, c1, c2, c3], &h);
            acc = ghash4(acc, [c4, c5, c6, c7], &h);
        }

        // The tail, a block at a time.
        for chunk in groups.into_remainder().chunks_mut(16) {
            let mut keystream = [counter(j0, next)];
            next = next.wrapping_add(1);
            encrypt(&round_keys, &mut keystream);
            let input = super::zero_padded(chunk);
            let output = store(_mm_xor_si128(load(&input), keystream[0]));
            chunk.copy_from_slice(&output[..chunk.len()]);
            let ciphertext = if DECRYPT {
                input
            } else {
                super::zero_padded(chunk)
            };
            acc = ghash1(acc, reflect(load(&ciphertext)), h[0]);
        }

        let lengths = super::lengths_block(aad.len(), data.len()).to_be_bytes();
        acc = ghash1(acc, reflect(load(&lengths)), h[0]);
        let mut mask = [j0];
        encrypt(&round_keys, &mut mask);
        store(_mm_xor_si128(reflect(acc), mask[0]))
    }
}

#[cfg(test)]
mod vectors;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_encode;
    use proptest::prelude::*;

    fn hex_block(hex: &str) -> Block {
        crate::hex_decode(hex).unwrap().try_into().unwrap()
    }

    /// Seals on the portable path and, where the CPU has it, on AES-NI;
    /// both must agree. Returns `ciphertext ‖ tag`.
    fn seal_both(key: &Block, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let gcm = Gcm::new(key);
        let mut portable = plaintext.to_vec();
        let tag = gcm.apply_portable::<false>(nonce, aad, &mut portable);
        portable.extend_from_slice(&tag);
        let mut dispatched = plaintext.to_vec();
        let tag = gcm.encrypt(nonce, aad, &mut dispatched);
        dispatched.extend_from_slice(&tag);
        assert!(
            portable == dispatched,
            "{} bytes: kernels disagree",
            plaintext.len()
        );
        portable
    }

    #[test]
    fn reports_selected_backend() {
        println!("aes-gcm backend: {}", backend());
        assert!(["aes-ni", "portable"].contains(&backend()));
    }

    #[test]
    fn fips_197_appendix_c1() {
        let key: Block = std::array::from_fn(|i| i as u8);
        let plaintext = hex_block("00112233445566778899aabbccddeeff");
        assert_eq!(
            hex_encode(&encrypt_block(&expand_key(&key), &plaintext)),
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        );
    }

    #[test]
    fn gcm_spec_test_cases_1_and_2() {
        // The GCM specification's test cases 1 and 2: the zero key and
        // nonce, an empty plaintext and one zero block.
        assert_eq!(
            hex_encode(&seal_both(&[0; 16], &[0; 12], b"", b"")),
            "58e2fccefa7e3061367f1d57a4e7455a"
        );
        assert_eq!(
            hex_encode(&seal_both(&[0; 16], &[0; 12], b"", &[0; 16])),
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
        );
    }

    #[test]
    fn matches_python_cryptography_at_every_length() {
        let key: Block = std::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = std::array::from_fn(|i| 0xa0 + i as u8);
        let digest = |len: usize| {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let aad: Vec<u8> = (0..len % 97).map(|i| (i * 17 + 3) as u8).collect();
            let sealed = seal_both(&key, &nonce, &aad, &plaintext);
            hex_encode(&crate::sha256(&sealed)[..16])
        };
        for (len, expected) in vectors::BY_LENGTH.iter().enumerate() {
            assert_eq!(digest(len), *expected, "len {len}");
        }
        assert_eq!(digest(65_536), vectors::LEN_64_KIB);
    }

    proptest! {
        #[test]
        fn hardware_kernel_matches_the_portable_oracle(
            key in any::<[u8; 16]>(),
            nonce in any::<[u8; 12]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..200),
            len in 0usize..1100,
        ) {
            let plaintext: Vec<u8> = (0..len).map(|i| (i as u8) ^ key[i % 16]).collect();
            let sealed = seal_both(&key, &nonce, &aad, &plaintext);
            let gcm = Gcm::new(&key);
            let mut portable = sealed[..len].to_vec();
            let mut dispatched = portable.clone();
            let tag = gcm.decrypt(&nonce, &aad, &mut dispatched);
            prop_assert_eq!(&tag[..], &sealed[len..]);
            prop_assert_eq!(gcm.apply_portable::<true>(&nonce, &aad, &mut portable), tag);
            prop_assert_eq!(&portable, &plaintext);
            prop_assert_eq!(&dispatched, &plaintext);
        }
    }
}
