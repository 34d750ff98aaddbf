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
//! SHA-256, HMAC and the AEAD follow the standards: the AEAD is AES-128-GCM
//! (FIPS 197, NIST SP 800-38D) and matches OpenSSL's on the committed
//! known-answer vectors. The signatures stay **simulation grade**:
//! Schnorr-style over a 256-bit prime field with textbook big-integer
//! arithmetic. They reproduce the *cost profile* and *API semantics* the
//! paper depends on; they are not intended to protect real data. Nor is
//! any of this hardened against side channels beyond what AES-NI gives.
//!
//! # Midstate caching
//!
//! Pesos's per-request crypto cost is dominated by fixed setup work that
//! depends only on long-lived keys, not on the message: the HMAC key
//! schedule (two SHA-256 compressions per MAC). [`hmac::HmacKey`] caches
//! it as two cloneable [`Sha256`] *midstates*, the ipad/opad-absorbed inner
//! and outer hash states; each MAC under the key clones them (a memcpy)
//! instead of re-padding and re-compressing the key. The Kinetic session
//! layer holds one per session secret, saving the schedule on all four MACs
//! of every drive exchange; the object store holds one for its nonce
//! subkey. ([`AeadKey`] likewise expands its AES round keys and hash-subkey
//! powers once, at construction.)
//!
//! The cached paths produce **byte-identical** output to the from-scratch
//! constructions — property tests assert this — so the caches are pure
//! cost optimizations, not format changes. Security-wise, a midstate holds
//! exactly the secret-derived state a fresh computation would reach;
//! cloning it neither widens key exposure in memory beyond the existing key
//! copies nor changes any tag. The [`sha256::ops`] counter tallies SHA-256
//! compressions process-wide (one relaxed atomic add per backend call, by
//! that call's block count, always on and exact) so regression tests can
//! pin per-operation digest budgets and the cluster's `/stats/digests`
//! gauge can report hashing work.
//!
//! # Backends
//!
//! Two primitives carry every payload pass — SHA-256 (content hash, every
//! Kinetic frame HMAC) and AES-128-GCM (object sealing) — and each has a
//! hardware kernel and a portable twin, chosen by the CPU alone:
//!
//! - **Detection.** On x86-64, the first use probes
//!   `is_x86_feature_detected!` and caches the answer in a `OnceLock`:
//!   `sha`, `ssse3` and `sse4.1` select the SHA extensions
//!   (`sha256rnds2` / `sha256msg1` / `sha256msg2`, in [`sha256`]); `aes`,
//!   `pclmulqdq`, `ssse3` and `sse4.1` select AES-NI counter mode, eight
//!   blocks in flight, with PCLMULQDQ GHASH folding four blocks per
//!   reduction (in the private `gcm` module). On any other CPU or target
//!   the scalar FIPS 180-4 rounds and the portable GCM run. Nothing else
//!   selects a backend: there is no cargo feature, environment variable or
//!   config field, and [`sha256::backend`] and [`aead::backend`] only
//!   report the outcome.
//! - **What stays byte-identical.** Everything. The backends compute the
//!   same functions, so digests, tags, ciphertexts, stored objects and wire
//!   frames do not depend on which one ran, and data written by one is read
//!   by the other. The compression counts do not move either: the bulk
//!   path hands a run of blocks to the backend in one call and tallies
//!   exactly the blocks it compressed; AES-GCM tallies nothing.
//! - **The safety argument.** Each kernel's `unsafe` is in one private
//!   module (`sha256::shani`, `gcm::aesni`). The kernels are
//!   `#[target_feature]` functions, unsafe to call only because the CPU
//!   must have the features they are compiled for; they are reached solely
//!   through methods of a token type whose one constructor is the detection
//!   itself, so a call without the features cannot be written. Memory is
//!   touched only through the bounds-checked slices and fixed-size arrays
//!   the kernels are given; loads and stores go through `u128` byte
//!   conversions, not raw pointers.
//! - **Why the portable twins stay.** Each is the only path on CPUs
//!   without the extensions and on non-x86-64 targets, and each is an
//!   oracle. The SHA-256 differential tests drive both implementations over
//!   random chaining states and blocks and every message length 0..=300,
//!   and [`sha256::sha256_scalar`] lets the bench harness time one against
//!   the other (about 7x on 64 KiB where `sha_ni` is present). The portable
//!   GCM — the byte-oriented AES of FIPS 197 and the bit-serial GF(2¹²⁸)
//!   multiply of SP 800-38D Algorithm 1 — is checked against FIPS 197 C.1,
//!   the GCM specification's test cases 1 and 2 and Python `cryptography`
//!   at every length 0..=300 and 64 KiB, and a property test holds the
//!   AES-NI kernel to it over random keys, nonces, AAD and lengths. On the
//!   reference host the kernel seals 64 KiB at ~3.4 GiB/s where the
//!   SHA-256 keystream-and-MAC stand-in it replaced managed ~0.48.

pub mod aead;
pub mod bigint;
pub mod cert;
pub mod error;
mod gcm;
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
