//! Remote attestation and secret provisioning.
//!
//! During bootstrap (paper §3.1) the Scone attestation service verifies that
//! the Pesos controller runs on genuine hardware and that its binary has not
//! been altered; only then does it hand over the runtime secrets — the TLS
//! key pair and the Kinetic disk credentials. This module reproduces that
//! workflow:
//!
//! * the enclave produces an [`EnclaveQuote`] over its measurement and some
//!   caller-chosen report data, signed by the (simulated) platform key;
//! * the [`AttestationService`] keeps a whitelist of expected measurements
//!   and the platform's public key, verifies quotes, and returns
//!   [`ProvisionedSecrets`] encrypted under a key derived from the quote's
//!   report data (standing in for the secure channel the real service
//!   establishes with the enclave).

use std::collections::HashSet;

use pesos_crypto::{AeadKey, HmacKey, KeyPair, PublicKey, Signature};

use crate::enclave::{Enclave, EnclaveMeasurement};
use crate::error::SgxError;

/// A quote: the enclave's measurement plus report data, signed by the
/// platform attestation key (EPID/DCAP analogue).
#[derive(Debug, Clone)]
pub struct EnclaveQuote {
    /// The enclave measurement.
    pub measurement: EnclaveMeasurement,
    /// 64 bytes of caller-controlled report data (Pesos binds the hash of
    /// its ephemeral provisioning key here).
    pub report_data: [u8; 64],
    /// Signature by the platform key over measurement and report data.
    pub signature: Signature,
}

/// The platform's quoting identity (one per machine).
#[derive(Clone)]
pub struct QuotingEnclave {
    platform_keys: KeyPair,
}

impl QuotingEnclave {
    /// Creates a quoting enclave with a deterministic platform key derived
    /// from `platform_seed` (each simulated machine uses a different seed).
    pub fn new(platform_seed: &[u8]) -> Self {
        QuotingEnclave {
            platform_keys: KeyPair::from_seed(platform_seed),
        }
    }

    /// The platform's public attestation key, to be registered with the
    /// attestation service (stands in for Intel's attestation PKI).
    pub fn platform_public_key(&self) -> PublicKey {
        self.platform_keys.public()
    }

    /// Produces a quote for `enclave` with the given report data.
    pub fn quote(&self, enclave: &Enclave, report_data: [u8; 64]) -> EnclaveQuote {
        let mut message = Vec::with_capacity(96);
        message.extend_from_slice(&enclave.measurement().0);
        message.extend_from_slice(&report_data);
        EnclaveQuote {
            measurement: enclave.measurement(),
            report_data,
            signature: self.platform_keys.sign(&message),
        }
    }
}

/// Secrets handed to the controller after successful attestation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvisionedSecrets {
    /// Seed for the controller's TLS/channel key pair.
    pub tls_key_seed: Vec<u8>,
    /// Administrative credentials for each Kinetic disk (disk id, secret).
    pub disk_credentials: Vec<(String, Vec<u8>)>,
    /// Master secret from which object-encryption keys are derived.
    pub storage_master_key: [u8; 32],
}

impl ProvisionedSecrets {
    /// Serializes the secrets for encrypted transport.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = pesos_wire_encode::Writer::new();
        w.bytes(&self.tls_key_seed);
        w.u32(self.disk_credentials.len() as u32);
        for (id, secret) in &self.disk_credentials {
            w.str(id);
            w.bytes(secret);
        }
        w.raw(&self.storage_master_key);
        w.finish()
    }

    /// Parses the serialized form.
    pub fn from_bytes(data: &[u8]) -> Result<Self, SgxError> {
        let mut r = pesos_wire_encode::Reader::new(data);
        let tls_key_seed = r.bytes().ok_or(SgxError::UnsealFailed)?;
        let n = r.u32().ok_or(SgxError::UnsealFailed)? as usize;
        let mut disk_credentials = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.str().ok_or(SgxError::UnsealFailed)?;
            let secret = r.bytes().ok_or(SgxError::UnsealFailed)?;
            disk_credentials.push((id, secret));
        }
        let key_bytes = r.raw(32).ok_or(SgxError::UnsealFailed)?;
        let mut storage_master_key = [0u8; 32];
        storage_master_key.copy_from_slice(key_bytes);
        Ok(ProvisionedSecrets {
            tls_key_seed,
            disk_credentials,
            storage_master_key,
        })
    }
}

/// Minimal internal length-prefixed encoding for the provisioning payload.
mod pesos_wire_encode {
    pub struct Writer {
        buf: Vec<u8>,
    }
    impl Writer {
        pub fn new() -> Self {
            Writer { buf: Vec::new() }
        }
        pub fn u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_be_bytes());
        }
        pub fn bytes(&mut self, b: &[u8]) {
            self.u32(b.len() as u32);
            self.buf.extend_from_slice(b);
        }
        pub fn str(&mut self, s: &str) {
            self.bytes(s.as_bytes());
        }
        pub fn raw(&mut self, b: &[u8]) {
            self.buf.extend_from_slice(b);
        }
        pub fn finish(self) -> Vec<u8> {
            self.buf
        }
    }

    /// Reads fields off the front of what is left of the input.
    pub struct Reader<'a> {
        rest: &'a [u8],
    }
    impl<'a> Reader<'a> {
        pub fn new(data: &'a [u8]) -> Self {
            Reader { rest: data }
        }
        pub fn u32(&mut self) -> Option<u32> {
            let (b, rest) = self.rest.split_first_chunk()?;
            self.rest = rest;
            Some(u32::from_be_bytes(*b))
        }
        pub fn bytes(&mut self) -> Option<Vec<u8>> {
            let len = self.u32()? as usize;
            self.raw(len).map(|b| b.to_vec())
        }
        pub fn str(&mut self) -> Option<String> {
            String::from_utf8(self.bytes()?).ok()
        }
        pub fn raw(&mut self, len: usize) -> Option<&'a [u8]> {
            let (out, rest) = self.rest.split_at_checked(len)?;
            self.rest = rest;
            Some(out)
        }
    }
}

/// The attestation and secret-provisioning service.
pub struct AttestationService {
    trusted_platform_keys: Vec<PublicKey>,
    expected_measurements: HashSet<[u8; 32]>,
    secrets: ProvisionedSecrets,
}

impl AttestationService {
    /// Creates a service holding `secrets` for enclaves whose measurement is
    /// whitelisted and whose quote is signed by a trusted platform key.
    pub fn new(secrets: ProvisionedSecrets) -> Self {
        AttestationService {
            trusted_platform_keys: Vec::new(),
            expected_measurements: HashSet::new(),
            secrets,
        }
    }

    /// Registers a trusted platform attestation key.
    pub fn trust_platform(&mut self, key: PublicKey) {
        if !self.trusted_platform_keys.contains(&key) {
            self.trusted_platform_keys.push(key);
        }
    }

    /// Whitelists an enclave measurement.
    pub fn expect_measurement(&mut self, measurement: EnclaveMeasurement) {
        self.expected_measurements.insert(measurement.0);
    }

    /// Verifies a quote.
    pub fn verify_quote(&self, quote: &EnclaveQuote) -> Result<(), SgxError> {
        if !self.expected_measurements.contains(&quote.measurement.0) {
            return Err(SgxError::AttestationFailed(format!(
                "unexpected measurement {}",
                quote.measurement.to_hex()
            )));
        }
        let mut message = Vec::with_capacity(96);
        message.extend_from_slice(&quote.measurement.0);
        message.extend_from_slice(&quote.report_data);
        let verified = self
            .trusted_platform_keys
            .iter()
            .any(|k| k.verify(&message, &quote.signature).is_ok());
        if !verified {
            return Err(SgxError::AttestationFailed(
                "quote not signed by a trusted platform".into(),
            ));
        }
        Ok(())
    }

    /// Verifies the quote and, on success, returns the secrets encrypted
    /// under a key derived from the quote's report data (which the enclave
    /// chose, so only it can decrypt).
    ///
    /// Report data can repeat (bootstrap fixes it), so the key can seal
    /// more than once: the nonce is derived from the payload under a
    /// second key from the same report data, and repeats only when the
    /// sealed bytes do.
    pub fn provision(&self, quote: &EnclaveQuote) -> Result<Vec<u8>, SgxError> {
        self.verify_quote(quote)?;
        let key = pesos_crypto::hkdf::derive_key32(&quote.report_data, b"provisioning");
        let nonce_key = pesos_crypto::hkdf::derive_key32(&quote.report_data, b"provisioning-nonce");
        let payload = self.secrets.to_bytes();
        let nonce = pesos_crypto::aead::synthetic_nonce(&HmacKey::new(&nonce_key), &[&payload]);
        Ok(AeadKey::new(&key).seal_to_bytes(&nonce, b"pesos-provisioning", &payload))
    }

    /// Enclave-side helper: decrypts a provisioning payload using the report
    /// data that was placed into the quote.
    pub fn unseal_provisioned(
        report_data: &[u8; 64],
        payload: &[u8],
    ) -> Result<ProvisionedSecrets, SgxError> {
        let key = pesos_crypto::hkdf::derive_key32(report_data, b"provisioning");
        let aead = AeadKey::new(&key);
        let plain = aead
            .open_from_bytes(payload, b"pesos-provisioning")
            .map_err(|_| SgxError::UnsealFailed)?;
        ProvisionedSecrets::from_bytes(&plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{ExecutionMode, ModeCost, SgxCostModel};
    use crate::enclave::EnclaveConfig;

    fn secrets() -> ProvisionedSecrets {
        ProvisionedSecrets {
            tls_key_seed: b"controller-tls-seed".to_vec(),
            disk_credentials: vec![
                ("kd-01".to_string(), b"secret-1".to_vec()),
                ("kd-02".to_string(), b"secret-2".to_vec()),
            ],
            storage_master_key: [9u8; 32],
        }
    }

    fn enclave() -> Enclave {
        Enclave::create(
            EnclaveConfig::default(),
            ModeCost::new(ExecutionMode::Sgx, SgxCostModel::zero()),
        )
        .unwrap()
    }

    #[test]
    fn secrets_serialization_round_trip() {
        let s = secrets();
        let parsed = ProvisionedSecrets::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(parsed, s);
        assert!(ProvisionedSecrets::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn end_to_end_attestation_flow() {
        let enclave = enclave();
        let qe = QuotingEnclave::new(b"machine-1");

        let mut service = AttestationService::new(secrets());
        service.trust_platform(qe.platform_public_key());
        service.expect_measurement(enclave.measurement());

        // The enclave binds a fresh provisioning key hash as report data.
        let mut report_data = [0u8; 64];
        report_data[..32].copy_from_slice(&pesos_crypto::sha256(b"ephemeral"));

        let quote = qe.quote(&enclave, report_data);
        let payload = service.provision(&quote).unwrap();
        let recovered = AttestationService::unseal_provisioned(&report_data, &payload).unwrap();
        assert_eq!(recovered, secrets());
    }

    #[test]
    fn provisioning_nonce_follows_the_payload() {
        // Bootstrap fixes the report data, so two services with different
        // secrets seal under one key: they must not share a nonce.
        let enclave = enclave();
        let qe = QuotingEnclave::new(b"machine-1");
        let quote = qe.quote(&enclave, [5u8; 64]);
        let provision = |secrets: ProvisionedSecrets| {
            let mut service = AttestationService::new(secrets);
            service.trust_platform(qe.platform_public_key());
            service.expect_measurement(enclave.measurement());
            service.provision(&quote).unwrap()
        };
        let mut other = secrets();
        other.storage_master_key = [10u8; 32];
        let (a, b) = (provision(secrets()), provision(other.clone()));
        assert_ne!(a[..12], b[..12]);
        assert_eq!(provision(secrets()), a);
        assert_eq!(
            AttestationService::unseal_provisioned(&[5u8; 64], &b).unwrap(),
            other
        );
    }

    #[test]
    fn unknown_measurement_rejected() {
        let enclave = enclave();
        let qe = QuotingEnclave::new(b"machine-1");
        let mut service = AttestationService::new(secrets());
        service.trust_platform(qe.platform_public_key());
        // Measurement NOT whitelisted.
        let quote = qe.quote(&enclave, [0u8; 64]);
        assert!(matches!(
            service.verify_quote(&quote),
            Err(SgxError::AttestationFailed(_))
        ));
    }

    #[test]
    fn untrusted_platform_rejected() {
        let enclave = enclave();
        let rogue_qe = QuotingEnclave::new(b"rogue-machine");
        let mut service = AttestationService::new(secrets());
        service.expect_measurement(enclave.measurement());
        // Platform key NOT registered.
        let quote = rogue_qe.quote(&enclave, [0u8; 64]);
        assert!(service.verify_quote(&quote).is_err());
    }

    #[test]
    fn tampered_quote_rejected() {
        let enclave = enclave();
        let qe = QuotingEnclave::new(b"machine-1");
        let mut service = AttestationService::new(secrets());
        service.trust_platform(qe.platform_public_key());
        service.expect_measurement(enclave.measurement());

        let mut quote = qe.quote(&enclave, [1u8; 64]);
        quote.report_data[0] ^= 0xff;
        assert!(service.verify_quote(&quote).is_err());
    }

    #[test]
    fn wrong_report_data_cannot_unseal() {
        let enclave = enclave();
        let qe = QuotingEnclave::new(b"machine-1");
        let mut service = AttestationService::new(secrets());
        service.trust_platform(qe.platform_public_key());
        service.expect_measurement(enclave.measurement());

        let report_data = [5u8; 64];
        let quote = qe.quote(&enclave, report_data);
        let payload = service.provision(&quote).unwrap();
        let wrong = [6u8; 64];
        assert_eq!(
            AttestationService::unseal_provisioned(&wrong, &payload),
            Err(SgxError::UnsealFailed)
        );
    }
}
