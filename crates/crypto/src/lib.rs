//! Cryptographic substrate for the Pesos secure object store reproduction.
//!
//! The original Pesos prototype relies on OpenSSL (TLS, AES-GCM, SHA-256,
//! X.509) running inside an SGX enclave. This crate provides the equivalent
//! building blocks implemented from scratch so that the rest of the system
//! exercises the same code paths — key derivation, authenticated encryption
//! of every object before it leaves the controller, certificate chains for
//! the `certificateSays` policy predicate, and mutually authenticated
//! channels — without depending on external cryptographic libraries.
//!
//! # Security notice
//!
//! These primitives are **simulation grade**. SHA-256 and HMAC follow the
//! standard constructions and pass the published test vectors, but the AEAD
//! and signature schemes are deliberately simple (encrypt-then-MAC over a
//! hash-based keystream, Schnorr-style signatures over a 256-bit prime
//! field with textbook big-integer arithmetic). They reproduce the *cost
//! profile* and *API semantics* the paper depends on; they are not intended
//! to protect real data.
//!
//! # Midstate caching
//!
//! Pesos's per-request crypto cost is dominated by fixed setup work that
//! depends only on long-lived keys, not on the message: the HMAC key
//! schedule (two SHA-256 compressions per MAC) and the AEAD keystream's
//! key+nonce absorption. This crate caches those prefixes, as cloneable
//! [`Sha256`] *midstates* or as a ready-padded block:
//!
//! - [`hmac::HmacKey`] stores the ipad/opad-absorbed inner and outer hash
//!   states; each MAC under the key clones them (a memcpy) instead of
//!   re-padding and re-compressing the key. The Kinetic session layer holds
//!   one per session secret, saving the schedule on all four MACs of every
//!   drive exchange.
//! - [`AeadKey`] stores its encryption subkey as the pre-padded block every
//!   keystream block hashes, and its MAC subkey as an `HmacKey`; each
//!   keystream block patches only the counter into the block.
//!
//! All cached paths produce **byte-identical** output to the from-scratch
//! constructions — property tests in each module assert this — so the
//! caches are pure cost optimizations, not format changes. Security-wise,
//! a midstate holds exactly the secret-derived state a fresh computation
//! would reach; cloning it neither widens key exposure in memory beyond the
//! existing key copies nor changes any tag or ciphertext. The
//! [`sha256::ops`] counter tallies SHA-256 compressions process-wide (one
//! relaxed atomic add per backend call, by that call's block count, always
//! on and exact) so regression tests can pin per-operation digest budgets
//! and the cluster's `/stats/digests` gauge can report hashing work.
//!
//! # Backends
//!
//! The paper's controller seals objects with hardware AES-GCM; the stand-in
//! here is built entirely on the SHA-256 compression function — keystream,
//! tag, content hash, every Kinetic frame HMAC — so that function is the
//! floor under every payload pass. It has two implementations, both in
//! [`sha256`]:
//!
//! - **Detection.** On x86-64, the first compression probes
//!   `is_x86_feature_detected!` for `sha`, `ssse3` and `sse4.1` and caches
//!   the answer; when all three are present every later compression runs on
//!   the SHA extensions (`sha256rnds2` / `sha256msg1` / `sha256msg2`). On
//!   any other CPU or target the scalar FIPS 180-4 rounds run. Nothing else
//!   selects a backend: there is no cargo feature, environment variable or
//!   config field, and [`sha256::backend`] only reports the outcome.
//! - **What stays byte-identical.** Everything. The backends compute the
//!   same function, so digests, tags, ciphertexts, stored objects and wire
//!   frames do not depend on which one ran, and data written by one is read
//!   by the other. The compression counts do not move either: the bulk
//!   path hands a run of blocks to the backend in one call and the AEAD
//!   keystream compresses two counter blocks per call, but each tallies
//!   exactly the blocks it compressed.
//! - **The safety argument.** All `unsafe` is in one private module. The
//!   kernels are `#[target_feature]` functions, unsafe to call only because
//!   the CPU must have the features they are compiled for; they are reached
//!   solely through methods of a token type whose one constructor is the
//!   detection itself, so a call without the features cannot be written.
//!   Memory is touched only through `loadu` on 16-byte sub-slices of
//!   bounds-checked 64-byte blocks.
//! - **Why the scalar twin stays.** It is the only path on CPUs without SHA
//!   extensions and on non-x86-64 targets, and it is the oracle: the
//!   differential tests drive both implementations over random chaining
//!   states and blocks and every message length 0..=300, and
//!   [`sha256::sha256_scalar`] lets the bench harness time one against the
//!   other (about 7x on 64 KiB where `sha_ni` is present).
//!
//! The two-counter keystream kernel exists because `sha256rnds2` has a
//! multi-cycle latency and the two lanes' dependency chains are
//! independent. How much they overlap is the CPU's business: on the
//! reference host a pair costs 81 ns against 86 ns for two single blocks —
//! the unit is throughput-bound there — and most of the keystream's gain
//! over the midstate-clone path comes from dropping the per-block
//! `clone`/`update`/`finalize` and its 128-byte pad.

pub mod aead;
pub mod bigint;
pub mod cert;
pub mod error;
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod sha256;

pub use aead::{AeadKey, SealedBox};
pub use bigint::U256;
pub use cert::{Certificate, CertificateBuilder, CertificateError, TrustStore};
pub use error::CryptoError;
pub use hkdf::hkdf_sha256;
pub use hmac::{HmacKey, HmacSha256};
pub use keys::{KeyPair, PublicKey, Signature};
pub use sha256::{sha256, Digest, Sha256};

/// Length in bytes of a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Length in bytes of symmetric keys used throughout the system.
pub const KEY_LEN: usize = 32;

/// Length in bytes of AEAD nonces.
pub const NONCE_LEN: usize = 12;

/// Length in bytes of the AEAD authentication tag.
pub const TAG_LEN: usize = 16;

/// Computes the SHA-256 digest of `data` and returns it hex-encoded.
///
/// Convenience helper used by object fingerprinting (`objHash` predicate)
/// and by tests.
pub fn sha256_hex(data: &[u8]) -> String {
    hex_encode(&sha256(data))
}

/// Encodes bytes as lowercase hexadecimal.
pub fn hex_encode(data: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(data.len() * 2);
    for &b in data {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0x0f) as usize] as char);
    }
    out
}

/// Decodes a lowercase or uppercase hexadecimal string into bytes.
///
/// Returns an error if the string has odd length or contains a non-hex
/// character.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, CryptoError> {
    if !s.len().is_multiple_of(2) {
        return Err(CryptoError::InvalidEncoding("odd-length hex string".into()));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for chunk in bytes.chunks(2) {
        let hi = hex_val(chunk[0])?;
        let lo = hex_val(chunk[1])?;
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

fn hex_val(c: u8) -> Result<u8, CryptoError> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        _ => Err(CryptoError::InvalidEncoding(format!(
            "invalid hex character {:?}",
            c as char
        ))),
    }
}

/// Constant-time equality comparison of two byte slices.
///
/// Returns `false` if the lengths differ. Used for MAC and tag comparison to
/// mirror what a production implementation would do.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let data = vec![0u8, 1, 2, 0xfe, 0xff, 0x10, 0xab];
        let enc = hex_encode(&data);
        assert_eq!(enc, "000102feff10ab");
        assert_eq!(hex_decode(&enc).unwrap(), data);
    }

    #[test]
    fn hex_decode_rejects_bad_input() {
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn sha256_hex_known_vector() {
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }
}
