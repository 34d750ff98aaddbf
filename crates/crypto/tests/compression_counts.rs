//! The `sha256::ops` counter stays exact under per-call counting.
//!
//! The counter is process-wide, so these checks live in a test binary of
//! their own with a single test function: nothing else hashes while a
//! delta is being read.

use pesos_crypto::aead::{counter_nonce, synthetic_nonce};
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

    // The AEAD is AES-128-GCM: sealing and opening hash nothing (the
    // SHA-256 stand-in it replaced spent one compression per 32 bytes plus
    // an HMAC over the ciphertext).
    let key = AeadKey::new(&[7u8; 32]);
    let aad = b"object-key";
    let nonce = counter_nonce(1, 1);
    for len in [0, 1, 15, 16, 17, 127, 128, 129, 1024, 4096 + 17, 65_536] {
        assert_eq!(
            spent(|| key.seal(&nonce, aad, &data[..len])),
            0,
            "seal of {len}"
        );
        let sealed = key.seal_to_bytes(&nonce, aad, &data[..len]);
        assert_eq!(
            spent(|| key.open_from_bytes(&sealed, aad).unwrap()),
            0,
            "open of {len}"
        );
    }

    // A synthetic nonce is exactly one HMAC over its parts, as the object
    // store draws it: key, version, content digest.
    let digest = sha256(&data[..1024]);
    for key_len in [0, 1, 15, 16, 17, 64, 200] {
        let object_key = &data[..key_len];
        assert_eq!(
            spent(|| synthetic_nonce(&hmac, &[object_key, &7u64.to_be_bytes(), &digest])),
            hash_blocks(64 + key_len + 8 + 32) - 1 + 1,
            "nonce for a {key_len}-byte key"
        );
    }
}
