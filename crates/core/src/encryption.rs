//! Transparent object encryption.
//!
//! Pesos encrypts every object with AES-GCM before it leaves the enclave for
//! a Kinetic drive (paper §2.2); the evaluation measures the overhead at
//! roughly 1.5 % for 1 KiB objects. The [`ObjectCrypter`] seals with
//! AES-128-GCM under a key derived from the provisioned storage master
//! secret and binds the object key and version as associated data, so
//! ciphertexts cannot be replayed under a different name or version by the
//! untrusted provider.
//!
//! # Nonces
//!
//! Every controller of a deployment is provisioned the same master secret,
//! and a restarted controller starts from nothing, so no counter can keep
//! nonces unique across them — and GCM under a repeated (key, nonce) pair
//! leaks the XOR of two plaintexts and the hash subkey that forges tags.
//! The nonce is therefore synthetic, a function of what is sealed:
//!
//! ```text
//! nonce = HMAC-SHA256(nonce subkey, object key ‖ version ‖ SHA-256(plaintext))[..12]
//! ```
//!
//! with the nonce subkey derived from the master secret apart from the AES
//! key. The version (8 bytes) and the digest (32) have fixed lengths, so
//! the concatenation determines all three inputs. Two seals share a nonce
//! only if they share the object key, version and content — then they
//! share the associated data too and produce identical bytes, which tells
//! an observer nothing new — or on a 96-bit collision of the MAC. The
//! construction needs no RNG and no state: a sealed object depends only on
//! (master secret, object key, version, plaintext), whichever controller
//! sealed it.
//!
//! The digest is the content hash the store already computes for the
//! version record (`objHash`); [`ObjectCrypter::seal`] computes it itself.
//!
//! # Stored layout
//!
//! `marker (1) ‖ payload`. Marker 0 is a plaintext object (encryption off);
//! marker 2 is `nonce (12) ‖ tag (16) ‖ ciphertext`. Marker 1 was the
//! SHA-256 stand-in cipher this repository used before AES-GCM; such an
//! object is refused, never opened.

use pesos_crypto::aead::synthetic_nonce;
use pesos_crypto::{AeadKey, CryptoError, Digest, HmacKey, NONCE_LEN, TAG_LEN};
use pesos_kinetic::Payload;

/// Marker of an object stored in the clear.
const PLAINTEXT: u8 = 0;
/// Marker of an object sealed by the retired SHA-256 stand-in cipher.
const RETIRED_STAND_IN: u8 = 1;
/// Marker of an AES-128-GCM sealed object.
const AES_GCM: u8 = 2;

/// Encrypts and decrypts object payloads.
pub struct ObjectCrypter {
    key: AeadKey,
    nonce_key: HmacKey,
    enabled: bool,
}

impl ObjectCrypter {
    /// Creates a crypter from the provisioned storage master key.
    pub fn new(master_key: &[u8; 32], enabled: bool) -> Self {
        ObjectCrypter {
            key: AeadKey::new(master_key),
            nonce_key: HmacKey::new(&pesos_crypto::hkdf::derive_key32(
                master_key,
                b"object-nonce",
            )),
            enabled,
        }
    }

    /// Whether encryption is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn aad(object_key: &str, version: u64) -> Vec<u8> {
        let mut aad = Vec::with_capacity(object_key.len() + 8);
        aad.extend_from_slice(object_key.as_bytes());
        aad.extend_from_slice(&version.to_be_bytes());
        aad
    }

    /// Hands `f` the associated data of `object_key` at `version`, built
    /// on the stack unless the key is longer than any this store expects.
    fn with_aad<T>(object_key: &str, version: u64, f: impl FnOnce(&[u8]) -> T) -> T {
        let mut stack = [0u8; 256];
        match stack.get_mut(..object_key.len() + 8) {
            Some(aad) => {
                let (key, version_bytes) = aad.split_at_mut(object_key.len());
                key.copy_from_slice(object_key.as_bytes());
                version_bytes.copy_from_slice(&version.to_be_bytes());
                f(aad)
            }
            None => f(&Self::aad(object_key, version)),
        }
    }

    /// Encrypts `plaintext` for storage as `object_key` at `version`.
    ///
    /// When encryption is disabled the plaintext is passed through behind
    /// a zero marker so that [`ObjectCrypter::unseal`] stays symmetric.
    pub fn seal(&self, object_key: &str, version: u64, plaintext: &[u8]) -> Vec<u8> {
        self.seal_hashed(object_key, version, plaintext, None)
            .to_vec()
    }

    /// [`ObjectCrypter::seal`] with the plaintext's SHA-256 supplied by the
    /// store, which computed it for the version record; `None` computes it
    /// here. The stored layout (module docs) is built in the shared buffer
    /// the drives receive: the plaintext is copied once, into it, and
    /// encrypted where it lies. Crate-private because the digest is
    /// trusted: one that does not match the plaintext could give two
    /// contents the same nonce.
    pub(crate) fn seal_hashed(
        &self,
        object_key: &str,
        version: u64,
        plaintext: &[u8],
        content_hash: Option<&Digest>,
    ) -> Payload {
        if !self.enabled {
            return Payload::from_fn(1 + plaintext.len(), |out| {
                if let Some((marker, body)) = out.split_first_mut() {
                    *marker = PLAINTEXT;
                    body.copy_from_slice(plaintext);
                }
            });
        }
        let content_hash = content_hash
            .copied()
            .unwrap_or_else(|| pesos_crypto::sha256(plaintext));
        let nonce = synthetic_nonce(
            &self.nonce_key,
            &[object_key.as_bytes(), &version.to_be_bytes(), &content_hash],
        );
        Self::with_aad(object_key, version, |aad| {
            Payload::from_fn(1 + NONCE_LEN + TAG_LEN + plaintext.len(), |out| {
                if let Some((marker, sealed)) = out.split_first_mut() {
                    *marker = AES_GCM;
                    let sized = self.key.seal_to_slice(sealed, &nonce, aad, plaintext);
                    debug_assert!(sized, "the payload is sized for the sealed layout");
                }
            })
        })
    }

    /// Decrypts a stored payload.
    pub fn unseal(
        &self,
        object_key: &str,
        version: u64,
        stored: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        match stored.split_first() {
            Some((&PLAINTEXT, plain)) => Ok(plain.to_vec()),
            Some((&AES_GCM, sealed)) => Self::with_aad(object_key, version, |aad| {
                self.key.open_from_bytes(sealed, aad)
            }),
            Some((&RETIRED_STAND_IN, _)) => Err(CryptoError::InvalidEncoding(
                "object sealed by the retired SHA-256 stand-in cipher (marker 1)".into(),
            )),
            Some((marker, _)) => Err(CryptoError::InvalidEncoding(format!(
                "unknown stored-object marker {marker}"
            ))),
            None => Err(CryptoError::InvalidEncoding("empty stored object".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encrypt_round_trip() {
        let c = ObjectCrypter::new(&[9u8; 32], true);
        let stored = c.seal("users/alice", 3, b"profile");
        assert_ne!(&stored[1..], b"profile");
        assert_eq!(c.unseal("users/alice", 3, &stored).unwrap(), b"profile");
    }

    #[test]
    fn stored_layout_matches_marker_plus_boxed_layout() {
        // The layout from the public primitives: marker 2, then the boxed
        // seal under the nonce the module docs define.
        let master = [9u8; 32];
        let aead = AeadKey::new(&master);
        let nonce_key = HmacKey::new(&pesos_crypto::hkdf::derive_key32(&master, b"object-nonce"));
        let lengths = [0usize, 1, 31, 32, 33, 1024, 65_536];
        let c = ObjectCrypter::new(&master, true);
        for len in lengths {
            let plain: Vec<u8> = (0..len).map(|i| (i * 7 + 5) as u8).collect();
            let nonce = synthetic_nonce(
                &nonce_key,
                &[
                    b"users/alice",
                    &3u64.to_be_bytes(),
                    &pesos_crypto::sha256(&plain),
                ],
            );
            let mut expected = vec![AES_GCM];
            expected.extend(
                aead.seal(&nonce, &ObjectCrypter::aad("users/alice", 3), &plain)
                    .to_bytes(),
            );
            let stored = c.seal("users/alice", 3, &plain);
            assert_eq!(stored, expected, "len {len}");
            let digest = pesos_crypto::sha256(&plain);
            assert_eq!(
                c.seal_hashed("users/alice", 3, &plain, Some(&digest)),
                expected
            );
            assert_eq!(c.unseal("users/alice", 3, &stored).unwrap(), plain);
        }
    }

    #[test]
    fn crypters_sharing_a_master_key_never_share_a_nonce_across_contents() {
        // Two controllers provisioned the same master key (a cluster, or a
        // store and its restart) seal different contents at the same key
        // and version: the nonces must differ. The same inputs seal to the
        // same bytes on both, so a replica or a re-import is byte-identical.
        let (a, b) = (
            ObjectCrypter::new(&[9u8; 32], true),
            ObjectCrypter::new(&[9u8; 32], true),
        );
        let nonce = |stored: &[u8]| stored[1..1 + NONCE_LEN].to_vec();
        let first = a.seal("users/alice", 3, b"profile v1");
        let second = b.seal("users/alice", 3, b"profile v2");
        assert_ne!(nonce(&first), nonce(&second));
        assert_ne!(
            nonce(&first),
            nonce(&a.seal("users/alice", 4, b"profile v1"))
        );
        assert_ne!(nonce(&first), nonce(&a.seal("users/bob", 3, b"profile v1")));
        assert_eq!(b.seal("users/alice", 3, b"profile v1"), first);
        assert_eq!(a.seal("users/alice", 3, b"profile v2"), second);
    }

    #[test]
    fn aad_binds_key_and_version() {
        let c = ObjectCrypter::new(&[9u8; 32], true);
        let stored = c.seal("users/alice", 3, b"profile");
        assert!(c.unseal("users/bob", 3, &stored).is_err());
        assert!(c.unseal("users/alice", 4, &stored).is_err());
    }

    #[test]
    fn disabled_mode_passes_through() {
        let c = ObjectCrypter::new(&[9u8; 32], false);
        assert!(!c.is_enabled());
        let stored = c.seal("k", 0, b"plain");
        assert_eq!(&stored[1..], b"plain");
        assert_eq!(c.unseal("k", 0, &stored).unwrap(), b"plain");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let c = ObjectCrypter::new(&[9u8; 32], true);
        let mut stored = c.seal("k", 0, b"data");
        let last = stored.len() - 1;
        stored[last] ^= 1;
        assert!(c.unseal("k", 0, &stored).is_err());
        assert!(c.unseal("k", 0, &[]).is_err());
    }

    #[test]
    fn stand_in_and_unknown_markers_are_refused_unopened() {
        let c = ObjectCrypter::new(&[9u8; 32], true);
        let mut stored = c.seal("k", 0, b"data");
        for marker in [RETIRED_STAND_IN, 3, 0xff] {
            stored[0] = marker;
            assert!(
                matches!(
                    c.unseal("k", 0, &stored),
                    Err(CryptoError::InvalidEncoding(_))
                ),
                "marker {marker}"
            );
        }
    }

    #[test]
    fn different_master_keys_do_not_interoperate() {
        let a = ObjectCrypter::new(&[1u8; 32], true);
        let b = ObjectCrypter::new(&[2u8; 32], true);
        let stored = a.seal("k", 0, b"data");
        assert!(b.unseal("k", 0, &stored).is_err());
    }
}
