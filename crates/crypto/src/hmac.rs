//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! Used for the AEAD's synthetic nonces, the Kinetic protocol envelopes,
//! key derivation and key-confirmation messages during attestation.
//!
//! # Cached key schedules
//!
//! The HMAC key schedule — padding the key to a block, XOR-ing the ipad and
//! opad masks, and compressing one block for each — costs two SHA-256
//! compressions plus the mask work, and depends only on the key. [`HmacKey`]
//! runs that schedule once and stores the two resulting [`Sha256`] midstates;
//! every subsequent MAC under the same key clones the midstates (a memcpy)
//! instead of redoing the schedule. Callers that MAC many messages under one
//! key (the Kinetic session layer does four MACs per drive exchange, the
//! object store one nonce per seal) should hold an `HmacKey`. The one-shot
//! [`HmacSha256::mac`] remains for ad-hoc keys and produces byte-identical
//! tags, which the equivalence tests assert.

use crate::sha256::{Digest, Sha256};

const BLOCK_LEN: usize = 64;

/// A reusable HMAC-SHA256 key with precomputed ipad/opad midstates.
///
/// # Examples
///
/// ```
/// use pesos_crypto::hmac::{HmacKey, HmacSha256};
/// let key = HmacKey::new(b"key");
/// let tag = key.mac(b"message");
/// assert_eq!(tag, HmacSha256::mac(b"key", b"message"));
/// assert!(key.verify(b"message", &tag));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 state after absorbing `key ^ ipad`.
    inner: Sha256,
    /// SHA-256 state after absorbing `key ^ opad`.
    outer: Sha256,
}

impl HmacKey {
    /// Runs the HMAC key schedule once for `key`.
    ///
    /// Keys longer than the SHA-256 block size are hashed first, as the
    /// standard requires.
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256(key);
            k[..d.len()].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// Starts an incremental MAC computation under this key.
    pub fn hasher(&self) -> HmacSha256 {
        HmacSha256 {
            inner: self.inner.clone(),
            outer: self.outer.clone(),
        }
    }

    /// MACs `data` under this key.
    pub fn mac(&self, data: &[u8]) -> Digest {
        let mut h = self.hasher();
        h.update(data);
        h.finalize()
    }

    /// Verifies `tag` against the MAC of `data` in constant time.
    pub fn verify(&self, data: &[u8], tag: &[u8]) -> bool {
        crate::ct_eq(&self.mac(data), tag)
    }

    /// Verifies `tag` against a caller-supplied *inner digest* in constant
    /// time, without re-hashing the message.
    ///
    /// HMAC is `outer(inner(message))`; [`HmacSha256::finalize_with_inner`]
    /// exposes the inner digest alongside the tag. Re-running only the
    /// outer transform over that digest costs one compression regardless of
    /// message length and proves two things: the tag was produced under
    /// this key (the outer midstate is key-derived), and it is bound to
    /// exactly this inner commitment. It does **not** prove the inner
    /// digest matches any particular message — the caller must obtain the
    /// message and the inner digest from a channel that cannot desynchronize
    /// them (e.g. both travel inside one in-process structure). Data that
    /// crossed an untrusted serialization boundary must be verified with
    /// [`HmacKey::verify`] instead.
    pub fn verify_inner(&self, inner: &Digest, tag: &[u8]) -> bool {
        let mut outer = self.outer.clone();
        outer.update(inner);
        crate::ct_eq(&outer.finalize(), tag)
    }
}

/// Incremental HMAC-SHA256 computation.
///
/// # Examples
///
/// ```
/// use pesos_crypto::hmac::HmacSha256;
/// let tag = HmacSha256::mac(b"key", b"message");
/// assert!(HmacSha256::verify(b"key", b"message", &tag));
/// assert!(!HmacSha256::verify(b"key", b"other", &tag));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a new MAC instance keyed with `key`.
    ///
    /// Runs the full key schedule; callers reusing a key should go through
    /// [`HmacKey::hasher`] instead.
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).hasher()
    }

    /// Absorbs `data` into the MAC computation.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finalizes and returns the 32-byte authentication tag.
    pub fn finalize(mut self) -> Digest {
        let inner_digest = self.inner.finalize();
        self.outer.update(&inner_digest);
        self.outer.finalize()
    }

    /// Finalizes and returns `(inner digest, tag)`.
    ///
    /// The inner digest is the SHA-256 of `ipad-block || message` — the
    /// commitment the outer transform signs. Callers that hand both values
    /// to a verifier over a tamper-proof channel let it check the tag with
    /// [`HmacKey::verify_inner`] in one compression instead of re-hashing
    /// the whole message; see that method for the trust boundary this
    /// implies.
    pub fn finalize_with_inner(mut self) -> (Digest, Digest) {
        let inner_digest = self.inner.finalize();
        self.outer.update(&inner_digest);
        (inner_digest, self.outer.finalize())
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> Digest {
        let mut h = HmacSha256::new(key);
        h.update(data);
        h.finalize()
    }

    /// Verifies `tag` against the MAC of `data` under `key` in constant time.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        let expected = Self::mac(key, data);
        crate::ct_eq(&expected, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_encode;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            hex_encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex_encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = HmacSha256::mac(&key, &data);
        assert_eq!(
            hex_encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        let key = [0xaa; 131];
        let tag = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex_encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = HmacSha256::new(b"secret");
        h.update(b"part one, ");
        h.update(b"part two");
        assert_eq!(
            h.finalize(),
            HmacSha256::mac(b"secret", b"part one, part two")
        );
    }

    /// RFC 2104 HMAC built from raw [`Sha256`] primitives, sharing no code
    /// with the cached key schedule — the independent reference the
    /// equivalence test compares against. (`HmacSha256::mac` itself routes
    /// through `HmacKey::new`, so comparing against it alone would be
    /// circular.)
    fn reference_hmac(key: &[u8], msg: &[u8]) -> Digest {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..32].copy_from_slice(&crate::sha256::sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        inner.update(msg);
        let inner_digest = inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&opad);
        outer.update(&inner_digest);
        outer.finalize()
    }

    #[test]
    fn cached_key_matches_one_shot_for_all_key_lengths() {
        // Short, block-length and longer-than-block keys all go through the
        // same midstate cache and must match both the one-shot API and an
        // independently built RFC 2104 reference.
        for key_len in [0usize, 1, 20, 63, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + 3) as u8).collect();
            let cached = HmacKey::new(&key);
            for msg_len in [0usize, 1, 55, 64, 200] {
                let msg = vec![0x5au8; msg_len];
                let tag = cached.mac(&msg);
                assert_eq!(
                    tag,
                    reference_hmac(&key, &msg),
                    "cached tag diverges from the raw-primitive reference \
                     (key {key_len} msg {msg_len})"
                );
                assert_eq!(
                    tag,
                    HmacSha256::mac(&key, &msg),
                    "key {key_len} msg {msg_len}"
                );
                assert!(cached.verify(&msg, &tag));
                assert!(!cached.verify(&msg, &tag[..16]));
            }
        }
    }

    #[test]
    fn cached_key_is_reusable_and_clonable() {
        let key = HmacKey::new(b"session-secret");
        let a = key.mac(b"first message");
        let b = key.clone().mac(b"first message");
        assert_eq!(a, b);
        // The key is not consumed or mutated by use.
        assert_eq!(key.mac(b"first message"), a);
        let mut h = key.hasher();
        h.update(b"first ");
        h.update(b"message");
        assert_eq!(h.finalize(), a);
    }

    #[test]
    fn verify_rejects_truncated_tag() {
        let tag = HmacSha256::mac(b"k", b"m");
        assert!(!HmacSha256::verify(b"k", b"m", &tag[..16]));
    }

    #[test]
    fn finalize_with_inner_matches_plain_finalize() {
        for msg_len in [0usize, 1, 55, 56, 64, 200, 4096] {
            let msg = vec![0xa7u8; msg_len];
            let key = HmacKey::new(b"folded-frame-secret");
            let mut h = key.hasher();
            h.update(&msg);
            let (inner, tag) = h.finalize_with_inner();
            assert_eq!(tag, key.mac(&msg), "msg {msg_len}");
            // The inner digest really is outer's preimage: the outer
            // transform over it reproduces the tag.
            assert!(key.verify_inner(&inner, &tag), "msg {msg_len}");
        }
    }

    #[test]
    fn verify_inner_rejects_wrong_key_and_tampered_commitment() {
        let key = HmacKey::new(b"right-key");
        let mut h = key.hasher();
        h.update(b"message");
        let (inner, tag) = h.finalize_with_inner();

        // A tag produced under a different key does not pass the outer
        // check, even with its own consistent inner digest.
        let other = HmacKey::new(b"wrong-key");
        let mut h = other.hasher();
        h.update(b"message");
        let (other_inner, other_tag) = h.finalize_with_inner();
        assert!(!key.verify_inner(&other_inner, &other_tag));
        assert!(!other.verify_inner(&inner, &tag));

        // A flipped bit in either half is caught.
        let mut bad_inner = inner;
        bad_inner[0] ^= 1;
        assert!(!key.verify_inner(&bad_inner, &tag));
        let mut bad_tag = tag;
        bad_tag[31] ^= 1;
        assert!(!key.verify_inner(&inner, &bad_tag));
        assert!(!key.verify_inner(&inner, &tag[..16]));
    }
}
