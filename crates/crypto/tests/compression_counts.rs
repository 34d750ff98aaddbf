//! The `sha256::ops` counter stays exact under per-call counting.
//!
//! The counter is process-wide, so these checks live in a test binary of
//! their own with a single test function: nothing else hashes while a
//! delta is being read.

use pesos_crypto::aead::counter_nonce;
use pesos_crypto::sha256::{ops, Sha256};
use pesos_crypto::{sha256, AeadKey, HmacKey};

fn spent<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ops::compressions();
    std::hint::black_box(f());
    ops::compressions() - before
}

/// Compressions of a SHA-256 over `n` bytes: the message, the 0x80
/// terminator and the 8-byte length, in 64-byte blocks.
fn hash_blocks(n: usize) -> u64 {
    (n as u64 + 9).div_ceil(64)
}

#[test]
fn compression_counts_are_exact() {
    let data = vec![0x42u8; 65_536 + 300];

    // One-shot hashing, at every length around the block and padding
    // boundaries and at the bulk sizes.
    for n in (0..=300).chain([4096, 65_536, 65_536 + 300]) {
        assert_eq!(
            spent(|| sha256(&data[..n])),
            hash_blocks(n),
            "sha256 of {n}"
        );
    }

    // Incremental hashing adds the same total however the input is split:
    // buffered bytes are counted when their block fills, never twice.
    for split in [0, 1, 63, 64, 65, 200, 4096, 65_535] {
        let n = 65_536;
        let total = spent(|| {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..n]);
            h.finalize()
        });
        assert_eq!(total, hash_blocks(n), "split at {split}");
    }

    // An HMAC under a cached key: the inner hash less its cached pad
    // block, plus one outer compression.
    let hmac = HmacKey::new(b"count-key");
    for n in [0, 1, 55, 64, 1024, 65_536] {
        assert_eq!(
            spent(|| hmac.mac(&data[..n])),
            hash_blocks(64 + n) - 1 + 1,
            "hmac of {n}"
        );
    }

    // Sealing L bytes: one compression per 32-byte keystream block — the
    // two-lane kernel counts two per pair and one for an odd tail, as the
    // per-block update/finalize it replaced did — plus the tag's HMAC over
    // nonce (12), aad, ciphertext and two 8-byte lengths.
    let key = AeadKey::new(&[7u8; 32]);
    let aad = b"object-key";
    let nonce = counter_nonce(1, 1);
    for len in [0, 1, 31, 32, 33, 63, 64, 65, 127, 1024, 4096 + 17, 65_536] {
        let expected = (len as u64).div_ceil(32) + hash_blocks(64 + 12 + aad.len() + len + 16);
        assert_eq!(
            spent(|| key.seal(&nonce, aad, &data[..len])),
            expected,
            "seal of {len}"
        );
        let sealed = key.seal_to_bytes(&nonce, aad, &data[..len]);
        assert_eq!(
            spent(|| key.open_from_bytes(&sealed, aad).unwrap()),
            expected,
            "open of {len}"
        );
    }
}
