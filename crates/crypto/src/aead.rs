//! Authenticated encryption with associated data (AEAD).
//!
//! Pesos encrypts every object with AES-128-GCM before it is written to a
//! Kinetic disk (paper §2.2). [`AeadKey`] is that cipher: standard
//! AES-128-GCM (NIST SP 800-38D) with a 96-bit nonce and a full 16-byte
//! tag, on AES-NI and PCLMULQDQ where the CPU has them and on a portable
//! transcription of the standards elsewhere (the crate-level "Backends"
//! section). Sealing and opening spend no SHA-256 compressions.
//!
//! GCM fails badly under a repeated (key, nonce) pair: the two keystreams
//! cancel, and the two tags give away the hash subkey, after which tags
//! can be forged. Every caller must therefore make nonces unique per key.
//! The object store does so with [`synthetic_nonce`], a MAC of everything
//! the sealed bytes depend on; [`counter_nonce`] suits only keys that seal
//! a known, non-repeating sequence.

use crate::error::CryptoError;
use crate::gcm::Gcm;
use crate::hmac::HmacKey;
use crate::{ct_eq, KEY_LEN, NONCE_LEN, TAG_LEN};

pub use crate::gcm::backend;

/// Offset of the ciphertext in the `nonce || tag || ciphertext` layout.
const BODY_AT: usize = NONCE_LEN + TAG_LEN;

/// A symmetric AEAD key: an expanded AES-128-GCM key (round keys and the
/// powers of the hash subkey), computed once at construction.
#[derive(Clone)]
pub struct AeadKey {
    gcm: Gcm,
}

/// An encrypted payload: nonce, ciphertext and authentication tag.
///
/// The serialized layout (produced by [`SealedBox::to_bytes`]) is
/// `nonce (12) || tag (16) || ciphertext`, which is also the layout stored on
/// the Kinetic drives for encrypted objects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBox {
    /// The unique-per-encryption nonce.
    pub nonce: [u8; NONCE_LEN],
    /// The encrypted payload.
    pub ciphertext: Vec<u8>,
    /// The GCM authentication tag.
    pub tag: [u8; TAG_LEN],
}

impl AeadKey {
    /// Creates an AEAD key from 32 bytes of keying material.
    ///
    /// The AES-128 key is derived from it, so one provisioned secret can
    /// also feed other derivations (nonce subkeys) without reuse.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let derived = crate::hkdf::derive_key32(key, b"aead-aes-128-gcm");
        let mut aes_key = [0u8; 16];
        aes_key.copy_from_slice(&derived[..16]);
        AeadKey {
            gcm: Gcm::new(&aes_key),
        }
    }

    /// Creates an AEAD key from an arbitrary-length secret by hashing it.
    pub fn from_secret(secret: &[u8]) -> Self {
        let k = crate::sha256(secret);
        Self::new(&k)
    }

    /// Encrypts `plaintext` with the given `nonce` and associated data.
    ///
    /// The nonce must never repeat under this key for different inputs
    /// (module docs).
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> SealedBox {
        let mut ciphertext = plaintext.to_vec();
        let tag = self.gcm.encrypt(nonce, aad, &mut ciphertext);
        SealedBox {
            nonce: *nonce,
            ciphertext,
            tag,
        }
    }

    /// Decrypts and authenticates a [`SealedBox`].
    ///
    /// Returns [`CryptoError::AuthenticationFailed`] if the tag does not
    /// verify (wrong key, modified ciphertext, or mismatched `aad`).
    pub fn open(&self, boxed: &SealedBox, aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.open_borrowed(
            Sealed {
                nonce: &boxed.nonce,
                tag: &boxed.tag,
                ciphertext: &boxed.ciphertext,
            },
            aad,
        )
    }

    /// Encrypts `plaintext` and appends the wire encoding
    /// `nonce || tag || ciphertext` to `out`, behind whatever header the
    /// caller already wrote there, as [`AeadKey::seal_to_slice`] lays it
    /// out. Byte-identical to [`AeadKey::seal`] followed by
    /// [`SealedBox::to_bytes`].
    pub fn seal_into(
        &self,
        out: &mut Vec<u8>,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) {
        let start = out.len();
        out.resize(start + BODY_AT + plaintext.len(), 0);
        if let Some(sealed) = out.get_mut(start..) {
            self.seal_to_slice(sealed, nonce, aad, plaintext);
        }
    }

    /// Encrypts `plaintext` into a buffer the caller sized to exactly
    /// `NONCE_LEN + TAG_LEN + plaintext.len()` bytes, which receives
    /// `nonce || tag || ciphertext`: the plaintext is copied once and
    /// encrypted and hashed where it lies. A buffer of any other size is
    /// left as it is and `false` returned.
    pub fn seal_to_slice(
        &self,
        out: &mut [u8],
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> bool {
        if out.len() != BODY_AT + plaintext.len() {
            return false;
        }
        let (header, body) = out.split_at_mut(BODY_AT);
        body.copy_from_slice(plaintext);
        let (nonce_out, tag_out) = header.split_at_mut(NONCE_LEN);
        nonce_out.copy_from_slice(nonce);
        tag_out.copy_from_slice(&self.gcm.encrypt(nonce, aad, body));
        true
    }

    /// Convenience: encrypt and return the wire encoding.
    pub fn seal_to_bytes(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_into(&mut out, nonce, aad, plaintext);
        out
    }

    /// Convenience: parse the wire encoding and decrypt.
    pub fn open_from_bytes(&self, data: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.open_borrowed(Sealed::parse(data)?, aad)
    }

    /// The ciphertext is copied once, into the buffer that becomes the
    /// plaintext, and decrypted and hashed there in one pass; the buffer
    /// is returned only if the tag over the ciphertext verifies, and
    /// dropped otherwise.
    fn open_borrowed(&self, sealed: Sealed<'_>, aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut plaintext = sealed.ciphertext.to_vec();
        let expected = self.gcm.decrypt(sealed.nonce, aad, &mut plaintext);
        if !ct_eq(&expected, sealed.tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        Ok(plaintext)
    }
}

/// The parts of a sealed payload, borrowed from wherever they lie.
struct Sealed<'a> {
    nonce: &'a [u8; NONCE_LEN],
    tag: &'a [u8; TAG_LEN],
    ciphertext: &'a [u8],
}

impl<'a> Sealed<'a> {
    /// Splits the `nonce || tag || ciphertext` layout without copying.
    fn parse(data: &'a [u8]) -> Result<Self, CryptoError> {
        let too_short =
            || CryptoError::InvalidEncoding(format!("sealed box too short: {} bytes", data.len()));
        let (nonce, rest) = data.split_first_chunk().ok_or_else(too_short)?;
        let (tag, ciphertext) = rest.split_first_chunk().ok_or_else(too_short)?;
        Ok(Sealed {
            nonce,
            tag,
            ciphertext,
        })
    }
}

impl SealedBox {
    /// Serializes as `nonce || tag || ciphertext`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.tag);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses the `nonce || tag || ciphertext` layout.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CryptoError> {
        let sealed = Sealed::parse(data)?;
        Ok(SealedBox {
            nonce: *sealed.nonce,
            tag: *sealed.tag,
            ciphertext: sealed.ciphertext.to_vec(),
        })
    }

    /// Total serialized length in bytes.
    pub fn encoded_len(&self) -> usize {
        BODY_AT + self.ciphertext.len()
    }
}

/// Builds a deterministic nonce from a 64-bit sequence number and 32-bit
/// stream identifier.
///
/// For single-use keys only, or keys whose one holder never reuses a
/// `(stream, seq)`: two sealers that share a key and count from the same
/// start repeat nonces, which GCM does not survive (module docs).
pub fn counter_nonce(stream: u32, seq: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&stream.to_be_bytes());
    nonce[4..].copy_from_slice(&seq.to_be_bytes());
    nonce
}

/// A nonce derived from what is sealed: the first 12 bytes of
/// HMAC-SHA256 under `key` over the concatenated `parts`.
///
/// Deterministic and stateful nowhere, so any number of sealers sharing
/// the AEAD key agree without coordination. Give `parts` everything the
/// sealed bytes depend on — the plaintext or a collision-resistant digest
/// of it, and the associated data — encoded so no two inputs concatenate
/// alike. A nonce then repeats only for identical inputs, which seal to
/// identical bytes and reveal nothing but their equality, or on a 96-bit
/// collision of the MAC. `key` must be independent of the AEAD key.
/// Costs exactly one HMAC over the parts.
pub fn synthetic_nonce(key: &HmacKey, parts: &[&[u8]]) -> [u8; NONCE_LEN] {
    let mut mac = key.hasher();
    for part in parts {
        mac.update(part);
    }
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(&mac.finalize()[..NONCE_LEN]);
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> AeadKey {
        AeadKey::new(&[7u8; KEY_LEN])
    }

    #[test]
    fn round_trip() {
        let k = key();
        let nonce = counter_nonce(1, 42);
        let sealed = k.seal(&nonce, b"aad", b"secret object payload");
        assert_ne!(sealed.ciphertext, b"secret object payload");
        let opened = k.open(&sealed, b"aad").unwrap();
        assert_eq!(opened, b"secret object payload");
    }

    #[test]
    fn empty_plaintext_round_trip() {
        let k = key();
        let sealed = k.seal(&counter_nonce(0, 0), b"", b"");
        assert_eq!(k.open(&sealed, b"").unwrap(), b"");
    }

    #[test]
    fn tamper_detection_ciphertext() {
        let k = key();
        let mut sealed = k.seal(&counter_nonce(0, 1), b"", b"hello world");
        sealed.ciphertext[0] ^= 1;
        assert_eq!(k.open(&sealed, b""), Err(CryptoError::AuthenticationFailed));
    }

    #[test]
    fn tamper_detection_aad() {
        let k = key();
        let sealed = k.seal(&counter_nonce(0, 1), b"object-key-1", b"hello");
        assert!(k.open(&sealed, b"object-key-2").is_err());
    }

    #[test]
    fn wrong_key_fails() {
        let k1 = key();
        let k2 = AeadKey::new(&[8u8; KEY_LEN]);
        let sealed = k1.seal(&counter_nonce(0, 1), b"", b"hello");
        assert!(k2.open(&sealed, b"").is_err());
    }

    #[test]
    fn wire_round_trip() {
        let k = key();
        let sealed = k.seal(&counter_nonce(3, 9), b"a", b"payload bytes");
        let bytes = sealed.to_bytes();
        let parsed = SealedBox::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, sealed);
        assert_eq!(k.open_from_bytes(&bytes, b"a").unwrap(), b"payload bytes");
    }

    #[test]
    fn from_bytes_rejects_short_input() {
        assert!(SealedBox::from_bytes(&[0u8; 10]).is_err());
    }

    #[test]
    fn keystream_differs_per_nonce() {
        let k = key();
        let a = k.seal(&counter_nonce(0, 1), b"", b"same plaintext");
        let b = k.seal(&counter_nonce(0, 2), b"", b"same plaintext");
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    /// Sizes that straddle the 16-byte block, the four-block GHASH group
    /// and the eight-block counter group of the hardware kernel.
    const LENGTHS: [usize; 12] = [0, 1, 15, 16, 17, 63, 64, 65, 127, 1024, 4096 + 17, 65_536];

    #[test]
    fn in_place_layout_matches_boxed_layout() {
        // `seal_into` builds `nonce || tag || ciphertext` in one buffer
        // behind the caller's header; the boxed path assembles the same
        // bytes from three owned parts. Both must open to the plaintext.
        let k = key();
        for (seq, len) in LENGTHS.into_iter().enumerate() {
            let nonce = counter_nonce(4, seq as u64);
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 13 + 1) as u8).collect();
            let boxed = k.seal(&nonce, b"name", &plaintext).to_bytes();
            let mut in_place = vec![0xee];
            k.seal_into(&mut in_place, &nonce, b"name", &plaintext);
            assert_eq!(in_place[0], 0xee, "len {len}");
            assert_eq!(in_place[1..], boxed[..], "len {len}");
            assert_eq!(k.seal_to_bytes(&nonce, b"name", &plaintext), boxed);
            assert_eq!(k.open_from_bytes(&boxed, b"name").unwrap(), plaintext);
        }
    }

    #[test]
    fn a_caller_sized_buffer_gets_the_boxed_layout() {
        let k = key();
        for (seq, len) in LENGTHS.into_iter().enumerate() {
            let nonce = counter_nonce(5, seq as u64);
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let boxed = k.seal(&nonce, b"name", &plaintext).to_bytes();
            let mut sized = vec![0; NONCE_LEN + TAG_LEN + len];
            assert!(k.seal_to_slice(&mut sized, &nonce, b"name", &plaintext));
            assert_eq!(sized, boxed, "len {len}");
            // A buffer of another size is refused untouched.
            let mut wrong = vec![0xee; NONCE_LEN + TAG_LEN + len + 1];
            assert!(!k.seal_to_slice(&mut wrong, &nonce, b"name", &plaintext));
            assert!(wrong.iter().all(|&b| b == 0xee));
        }
    }

    #[test]
    fn large_payload_round_trip() {
        let k = key();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 256) as u8).collect();
        let sealed = k.seal(&counter_nonce(1, 1), b"large", &data);
        assert_eq!(k.open(&sealed, b"large").unwrap(), data);
    }
}
