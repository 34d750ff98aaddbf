//! Authenticated encryption with associated data (AEAD).
//!
//! Pesos encrypts every object with AES-128-GCM before it is written to a
//! Kinetic disk, and uses the same primitive for the secure-channel record
//! layer. This module provides the stand-in: an encrypt-then-MAC scheme
//! built from the in-crate SHA-256 — a counter-mode keystream generated by
//! hashing `(key, nonce, counter)` blocks, authenticated with HMAC-SHA256
//! over `aad || ciphertext || lengths`, truncated to a 16-byte tag.
//!
//! The construction has the same interface and asymptotic cost profile as
//! AES-GCM (one pass to encrypt, one pass to authenticate) which is what the
//! paper's encryption-overhead experiment measures. It is not intended to be
//! cryptographically strong; see the crate-level security notice.

use crate::error::CryptoError;
use crate::hmac::HmacKey;
use crate::sha256::{digest_padded_block, digest_padded_block_pair};
use crate::{ct_eq, KEY_LEN, NONCE_LEN, TAG_LEN};

/// Offset of the 8 counter bytes in a keystream block, after key and nonce.
const COUNTER_AT: usize = KEY_LEN + NONCE_LEN;
/// Length of the message a keystream block hashes: key, nonce, counter.
const KEYSTREAM_MSG_LEN: usize = COUNTER_AT + 8;
/// Offset of the ciphertext in the `nonce || tag || ciphertext` layout.
const BODY_AT: usize = NONCE_LEN + TAG_LEN;

/// A symmetric AEAD key with derived encryption and MAC subkeys.
///
/// Both subkeys are stored pre-scheduled: the encryption key as the padded
/// SHA-256 block every keystream block hashes, with only nonce and counter
/// left to fill in, and the MAC key as an [`HmacKey`] whose ipad/opad
/// compressions are done once at construction instead of once per
/// seal/open.
#[derive(Clone)]
pub struct AeadKey {
    /// `enc_key || 0^12 || 0^8 || 0x80 || 0.. || bit length`: the one-block
    /// SHA-256 message `key || nonce || counter`, already padded.
    keystream_block: [u8; 64],
    /// HMAC key schedule for the derived MAC key.
    mac_key: HmacKey,
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
    /// The truncated HMAC authentication tag.
    pub tag: [u8; TAG_LEN],
}

impl AeadKey {
    /// Creates an AEAD key from 32 bytes of keying material.
    ///
    /// Independent encryption and MAC subkeys are derived internally so a
    /// single provisioned key can be used safely for both purposes.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let enc_key = crate::hkdf::derive_key32(key, b"aead-enc");
        let mac_key = crate::hkdf::derive_key32(key, b"aead-mac");
        let mut keystream_block = [0u8; 64];
        keystream_block[..KEY_LEN].copy_from_slice(&enc_key);
        keystream_block[KEYSTREAM_MSG_LEN] = 0x80;
        keystream_block[56..].copy_from_slice(&(8 * KEYSTREAM_MSG_LEN as u64).to_be_bytes());
        AeadKey {
            keystream_block,
            mac_key: HmacKey::new(&mac_key),
        }
    }

    /// Creates an AEAD key from an arbitrary-length secret by hashing it.
    pub fn from_secret(secret: &[u8]) -> Self {
        let k = crate::sha256(secret);
        Self::new(&k)
    }

    /// Encrypts `plaintext` with the given `nonce` and associated data.
    ///
    /// The nonce must be unique per key; the controller uses a per-object
    /// monotonically increasing counter combined with random bytes.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> SealedBox {
        let mut ciphertext = plaintext.to_vec();
        self.apply_keystream(nonce, &mut ciphertext);
        let tag = self.compute_tag(nonce, aad, &ciphertext);
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
    /// `nonce || tag || ciphertext` to `out`.
    ///
    /// The layout is built in place — the plaintext is copied once, behind
    /// whatever header the caller already wrote to `out`, encrypted where it
    /// lies and MACed as a slice — and is byte-identical to
    /// [`AeadKey::seal`] followed by [`SealedBox::to_bytes`].
    pub fn seal_into(
        &self,
        out: &mut Vec<u8>,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) {
        let start = out.len();
        out.reserve(BODY_AT + plaintext.len());
        out.extend_from_slice(nonce);
        out.extend_from_slice(&[0u8; TAG_LEN]);
        out.extend_from_slice(plaintext);
        let (header, body) = out[start..].split_at_mut(BODY_AT);
        self.apply_keystream(nonce, body);
        header[NONCE_LEN..].copy_from_slice(&self.compute_tag(nonce, aad, body));
    }

    /// Convenience: encrypt and return the wire encoding.
    pub fn seal_to_bytes(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_into(&mut out, nonce, aad, plaintext);
        out
    }

    /// Convenience: parse the wire encoding and decrypt.
    ///
    /// The tag is verified over the borrowed ciphertext; only then is the
    /// ciphertext copied, once, into the buffer that becomes the plaintext.
    pub fn open_from_bytes(&self, data: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.open_borrowed(Sealed::parse(data)?, aad)
    }

    fn open_borrowed(&self, sealed: Sealed<'_>, aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let expected = self.compute_tag(sealed.nonce, aad, sealed.ciphertext);
        if !ct_eq(&expected, sealed.tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let mut plaintext = sealed.ciphertext.to_vec();
        self.apply_keystream(sealed.nonce, &mut plaintext);
        Ok(plaintext)
    }

    /// XORs the keystream for `nonce` into `data` in place.
    ///
    /// Each 32-byte keystream block is `sha256(key || nonce || counter)`: a
    /// 52-byte message, so one compression of one padded block from the
    /// initial state. The padded block is the key's template with the nonce
    /// written in once; per block only the 8 counter bytes change. Blocks
    /// are produced two counters at a time so the hardware backend can
    /// overlap the two compressions, and XORed 64 bytes at a time. The
    /// number of compressions is exactly `ceil(len / 32)`, as it was when
    /// every block went through `update` and `finalize`.
    fn apply_keystream(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        let mut even = self.keystream_block;
        even[KEY_LEN..COUNTER_AT].copy_from_slice(nonce);
        let mut odd = even;
        let set_counter = |block: &mut [u8; 64], counter: u64| {
            block[COUNTER_AT..KEYSTREAM_MSG_LEN].copy_from_slice(&counter.to_be_bytes());
        };

        let mut counter: u64 = 0;
        for chunk in data.chunks_mut(64) {
            set_counter(&mut even, counter);
            if chunk.len() > 32 {
                set_counter(&mut odd, counter + 1);
                xor_into(chunk, &digest_padded_block_pair(&even, &odd));
            } else {
                xor_into(chunk, &digest_padded_block(&even));
            }
            counter += 2;
        }
    }

    /// Computes the truncated authentication tag over nonce, AAD, ciphertext
    /// and their lengths (to prevent boundary-shifting attacks).
    fn compute_tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = self.mac_key.hasher();
        mac.update(nonce);
        mac.update(aad);
        mac.update(ciphertext);
        mac.update(&(aad.len() as u64).to_be_bytes());
        mac.update(&(ciphertext.len() as u64).to_be_bytes());
        let full = mac.finalize();
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&full[..TAG_LEN]);
        tag
    }
}

/// XORs `keystream` into `data`, which is at most as long.
fn xor_into(data: &mut [u8], keystream: &[u8]) {
    for (d, k) in data.iter_mut().zip(keystream) {
        *d ^= k;
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

/// Generates a random nonce using the supplied RNG.
pub fn random_nonce<R: rand::Rng>(rng: &mut R) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill(&mut nonce[..]);
    nonce
}

/// Builds a deterministic nonce from a 64-bit sequence number and 32-bit
/// stream identifier; used by the secure-channel record layer.
pub fn counter_nonce(stream: u32, seq: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&stream.to_be_bytes());
    nonce[4..].copy_from_slice(&seq.to_be_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::Sha256;

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

    /// Sizes that straddle the 32-byte keystream block, the 64-byte pair
    /// and the single-block tail of the two-lane kernel.
    const LENGTHS: [usize; 12] = [0, 1, 31, 32, 33, 63, 64, 65, 127, 1024, 4096 + 17, 65_536];

    #[test]
    fn keystream_kernel_matches_uncached_reference() {
        // The production path patches a counter into a pre-padded block and
        // compresses two counters at a time; this reference recomputes
        // sha256(key || nonce || counter) from scratch through the public
        // hasher for every 32-byte block. Ciphertexts and tags must be
        // byte-identical across payload sizes spanning block boundaries.
        let master = [7u8; KEY_LEN];
        let enc_key = crate::hkdf::derive_key32(&master, b"aead-enc");
        let mac_key = crate::hkdf::derive_key32(&master, b"aead-mac");
        let k = AeadKey::new(&master);
        for (seq, len) in LENGTHS.into_iter().enumerate() {
            let nonce = counter_nonce(9, seq as u64);
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();

            let mut expected = plaintext.clone();
            for (counter, chunk) in expected.chunks_mut(32).enumerate() {
                let mut h = Sha256::new();
                h.update(&enc_key);
                h.update(&nonce);
                h.update(&(counter as u64).to_be_bytes());
                xor_into(chunk, &h.finalize());
            }

            let sealed = k.seal(&nonce, b"aad", &plaintext);
            assert_eq!(sealed.ciphertext, expected, "len {len}");

            // The tag must equal the uncached HMAC reference too.
            let mut mac = crate::hmac::HmacSha256::new(&mac_key);
            mac.update(&nonce);
            mac.update(b"aad");
            mac.update(&expected);
            mac.update(&(b"aad".len() as u64).to_be_bytes());
            mac.update(&(expected.len() as u64).to_be_bytes());
            let full = mac.finalize();
            assert_eq!(sealed.tag[..], full[..TAG_LEN], "len {len}");
        }
    }

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
    fn large_payload_round_trip() {
        let k = key();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 256) as u8).collect();
        let sealed = k.seal(&counter_nonce(1, 1), b"large", &data);
        assert_eq!(k.open(&sealed, b"large").unwrap(), data);
    }
}
