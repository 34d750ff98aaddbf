//! Mutually authenticated encrypted channels.
//!
//! Pesos terminates TLS inside the enclave for client connections and uses
//! an equally protected channel to the Kinetic drives, so that "at no time is
//! the data exchanged between the client and the controller visible in clear
//! text to any outsider" (paper §3.1). This module reproduces that channel:
//!
//! 1. **Handshake** — both sides exchange an ephemeral Diffie–Hellman share
//!    (in the same 256-bit prime group as the signature scheme), their
//!    certificate, and a signature over the transcript. Each side verifies
//!    the peer certificate against a [`TrustStore`] and the signature against
//!    the certificate's key, yielding mutual authentication.
//! 2. **Record layer** — traffic keys are derived from the DH shared secret
//!    with HKDF and records are protected with the AEAD, using strictly
//!    increasing sequence numbers for replay protection.
//!
//! The handshake is expressed as explicit messages so it can run over any
//! byte transport; [`SecureChannel::establish_pair`] is a convenience that
//! wires both directions in process, which is how the simulator-backed
//! benchmarks use it.

use pesos_crypto::bigint::{group_order, prime_p, U256};
use pesos_crypto::{
    aead::counter_nonce, hkdf_sha256, AeadKey, Certificate, KeyPair, Signature, TrustStore,
    NONCE_LEN, TAG_LEN,
};
use rand::Rng;

use crate::error::WireError;

/// Role of an endpoint in the handshake; determines key directionality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The connection initiator (Pesos client, or the controller when it
    /// connects to a drive).
    Initiator,
    /// The connection acceptor (the controller, or the drive).
    Responder,
}

/// Static configuration of one endpoint.
#[derive(Clone)]
pub struct ChannelConfig {
    /// The endpoint's long-term signing keys.
    pub keys: KeyPair,
    /// The certificate presented to the peer.
    pub certificate: Certificate,
    /// Roots trusted when validating the peer certificate.
    pub trust: TrustStore,
    /// Logical time used to check certificate validity windows.
    pub now: u64,
}

impl ChannelConfig {
    /// Creates a configuration from keys, certificate and trust store.
    pub fn new(keys: KeyPair, certificate: Certificate, trust: TrustStore, now: u64) -> Self {
        ChannelConfig {
            keys,
            certificate,
            trust,
            now,
        }
    }
}

/// The single handshake message each side sends.
#[derive(Clone, Debug)]
pub struct HandshakeMessage {
    /// Sender role.
    pub role: Role,
    /// Ephemeral Diffie–Hellman public share (32 bytes, big-endian).
    pub ephemeral_public: [u8; 32],
    /// Random nonce contributed to the transcript.
    pub nonce: [u8; 16],
    /// The sender's certificate.
    pub certificate: Certificate,
    /// Signature over the transcript contribution.
    pub signature: Signature,
}

/// Handshake state kept by the initiator between sending its message and
/// receiving the responder's.
pub struct PendingHandshake {
    config: ChannelConfig,
    ephemeral_secret: U256,
    local_message: HandshakeMessage,
}

/// The handshake driver.
pub struct SecureChannel;

/// An established, keyed endpoint able to seal and open records.
pub struct SecureEndpoint {
    send_key: AeadKey,
    recv_key: AeadKey,
    send_seq: u64,
    recv_seq: u64,
    peer_certificate: Certificate,
}

fn transcript_bytes(role: Role, ephemeral_public: &[u8; 32], nonce: &[u8; 16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(match role {
        Role::Initiator => 1,
        Role::Responder => 2,
    });
    out.extend_from_slice(ephemeral_public);
    out.extend_from_slice(nonce);
    out.extend_from_slice(b"pesos-channel-v1");
    out
}

fn make_message<R: Rng>(
    config: &ChannelConfig,
    role: Role,
    rng: &mut R,
) -> (HandshakeMessage, U256) {
    let q = group_order();
    let p = prime_p();
    let ephemeral_secret = U256::random_below(rng, &q);
    let ephemeral_public = U256::from_u64(2).pow_mod(&ephemeral_secret, &p);
    let mut nonce = [0u8; 16];
    rng.fill(&mut nonce[..]);
    let pub_bytes = ephemeral_public.to_be_bytes();
    let signature = config
        .keys
        .sign(&transcript_bytes(role, &pub_bytes, &nonce));
    (
        HandshakeMessage {
            role,
            ephemeral_public: pub_bytes,
            nonce,
            certificate: config.certificate.clone(),
            signature,
        },
        ephemeral_secret,
    )
}

fn verify_message(config: &ChannelConfig, msg: &HandshakeMessage) -> Result<(), WireError> {
    // Certificate must chain to a trusted root (self-signed peer certs are
    // accepted when their key itself is pinned as a root).
    config
        .trust
        .verify_chain(std::slice::from_ref(&msg.certificate), config.now)
        .map_err(|e| WireError::HandshakeFailed(format!("peer certificate rejected: {e}")))?;
    // The signature binds the ephemeral share to the certified identity.
    msg.certificate
        .subject_key
        .verify(
            &transcript_bytes(msg.role, &msg.ephemeral_public, &msg.nonce),
            &msg.signature,
        )
        .map_err(|_| WireError::HandshakeFailed("bad handshake signature".into()))?;
    Ok(())
}

fn derive_endpoint(
    local_secret: &U256,
    local_msg: &HandshakeMessage,
    peer_msg: &HandshakeMessage,
    local_role: Role,
) -> SecureEndpoint {
    let p = prime_p();
    let peer_pub = U256::from_be_bytes(&peer_msg.ephemeral_public);
    let shared = peer_pub.pow_mod(local_secret, &p);

    // Transcript hash binds both nonces and shares into the key schedule so
    // both sides must have seen the same handshake.
    let (init_msg, resp_msg) = match local_role {
        Role::Initiator => (local_msg, peer_msg),
        Role::Responder => (peer_msg, local_msg),
    };
    let mut transcript = Vec::new();
    transcript.extend_from_slice(&init_msg.ephemeral_public);
    transcript.extend_from_slice(&init_msg.nonce);
    transcript.extend_from_slice(&resp_msg.ephemeral_public);
    transcript.extend_from_slice(&resp_msg.nonce);

    let okm = hkdf_sha256(
        &transcript,
        &shared.to_be_bytes(),
        b"pesos-traffic-keys",
        64,
    );
    let mut i2r = [0u8; 32];
    let mut r2i = [0u8; 32];
    i2r.copy_from_slice(&okm[..32]);
    r2i.copy_from_slice(&okm[32..]);

    let (send, recv) = match local_role {
        Role::Initiator => (i2r, r2i),
        Role::Responder => (r2i, i2r),
    };

    SecureEndpoint {
        send_key: AeadKey::new(&send),
        recv_key: AeadKey::new(&recv),
        send_seq: 0,
        recv_seq: 0,
        peer_certificate: peer_msg.certificate.clone(),
    }
}

impl SecureChannel {
    /// Starts a handshake as the initiator: returns the message to transmit
    /// and the pending state needed to complete the handshake.
    pub fn initiate<R: Rng>(
        config: ChannelConfig,
        rng: &mut R,
    ) -> (HandshakeMessage, PendingHandshake) {
        let (msg, secret) = make_message(&config, Role::Initiator, rng);
        (
            msg.clone(),
            PendingHandshake {
                config,
                ephemeral_secret: secret,
                local_message: msg,
            },
        )
    }

    /// Processes an initiator's message as the responder. Returns the
    /// responder's handshake message and the established endpoint.
    pub fn respond<R: Rng>(
        config: ChannelConfig,
        initiator_msg: &HandshakeMessage,
        rng: &mut R,
    ) -> Result<(HandshakeMessage, SecureEndpoint), WireError> {
        if initiator_msg.role != Role::Initiator {
            return Err(WireError::HandshakeFailed("unexpected role".into()));
        }
        verify_message(&config, initiator_msg)?;
        let (msg, secret) = make_message(&config, Role::Responder, rng);
        let endpoint = derive_endpoint(&secret, &msg, initiator_msg, Role::Responder);
        Ok((msg, endpoint))
    }

    /// Completes the handshake on the initiator side.
    pub fn complete(
        pending: PendingHandshake,
        responder_msg: &HandshakeMessage,
    ) -> Result<SecureEndpoint, WireError> {
        if responder_msg.role != Role::Responder {
            return Err(WireError::HandshakeFailed("unexpected role".into()));
        }
        verify_message(&pending.config, responder_msg)?;
        Ok(derive_endpoint(
            &pending.ephemeral_secret,
            &pending.local_message,
            responder_msg,
            Role::Initiator,
        ))
    }

    /// Runs the whole handshake in process and returns
    /// `(initiator_endpoint, responder_endpoint)`.
    pub fn establish_pair<R: Rng>(
        initiator: ChannelConfig,
        responder: ChannelConfig,
        rng: &mut R,
    ) -> Result<(SecureEndpoint, SecureEndpoint), WireError> {
        let (init_msg, pending) = Self::initiate(initiator, rng);
        let (resp_msg, responder_ep) = Self::respond(responder, &init_msg, rng)?;
        let initiator_ep = Self::complete(pending, &resp_msg)?;
        Ok((initiator_ep, responder_ep))
    }
}

impl SecureEndpoint {
    /// The peer's certificate as validated during the handshake; its subject
    /// key is the session identity used by `sessionKeyIs` policies.
    pub fn peer_certificate(&self) -> &Certificate {
        &self.peer_certificate
    }

    /// Encrypts and frames a record.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let nonce = counter_nonce(0x5345414c, self.send_seq);
        let aad = self.send_seq.to_be_bytes();
        self.send_seq += 1;
        let mut out = Vec::with_capacity(aad.len() + NONCE_LEN + TAG_LEN + plaintext.len());
        out.extend_from_slice(&aad);
        self.send_key.seal_into(&mut out, &nonce, &aad, plaintext);
        out
    }

    /// Authenticates, decrypts and unframes a record.
    ///
    /// Records must arrive in order; a skipped or replayed sequence number is
    /// rejected, mirroring TLS semantics over a reliable transport.
    pub fn open(&mut self, record: &[u8]) -> Result<Vec<u8>, WireError> {
        if record.len() < 8 {
            return Err(WireError::RecordRejected("record too short".into()));
        }
        let mut seq_bytes = [0u8; 8];
        seq_bytes.copy_from_slice(&record[..8]);
        let seq = u64::from_be_bytes(seq_bytes);
        if seq != self.recv_seq {
            return Err(WireError::RecordRejected(format!(
                "out-of-order record: expected {}, got {seq}",
                self.recv_seq
            )));
        }
        let plaintext = self
            .recv_key
            .open_from_bytes(&record[8..], &seq_bytes)
            .map_err(|e| WireError::RecordRejected(e.to_string()))?;
        self.recv_seq += 1;
        Ok(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesos_crypto::CertificateBuilder;

    fn setup() -> (ChannelConfig, ChannelConfig) {
        let ca = KeyPair::from_seed(b"channel-ca");
        let client = KeyPair::from_seed(b"client-alice");
        let server = KeyPair::from_seed(b"pesos-controller");

        let client_cert = CertificateBuilder::new("client:alice", client.public()).issue("ca", &ca);
        let server_cert =
            CertificateBuilder::new("pesos:controller", server.public()).issue("ca", &ca);

        let mut trust = TrustStore::new();
        trust.add_root(ca.public());

        (
            ChannelConfig::new(client, client_cert, trust.clone(), 100),
            ChannelConfig::new(server, server_cert, trust, 100),
        )
    }

    #[test]
    fn handshake_and_record_round_trip() {
        let (client_cfg, server_cfg) = setup();
        let mut rng = rand::thread_rng();
        let (mut client, mut server) =
            SecureChannel::establish_pair(client_cfg, server_cfg, &mut rng).unwrap();

        assert_eq!(client.peer_certificate().subject, "pesos:controller");
        assert_eq!(server.peer_certificate().subject, "client:alice");

        let record = client.seal(b"PUT key=alice value=42");
        assert_ne!(&record[8..], b"PUT key=alice value=42");
        assert_eq!(server.open(&record).unwrap(), b"PUT key=alice value=42");

        let reply = server.seal(b"200 OK");
        assert_eq!(client.open(&reply).unwrap(), b"200 OK");
    }

    #[test]
    fn replayed_record_rejected() {
        let (client_cfg, server_cfg) = setup();
        let mut rng = rand::thread_rng();
        let (mut client, mut server) =
            SecureChannel::establish_pair(client_cfg, server_cfg, &mut rng).unwrap();
        let record = client.seal(b"once");
        server.open(&record).unwrap();
        assert!(server.open(&record).is_err());
    }

    #[test]
    fn tampered_record_rejected() {
        let (client_cfg, server_cfg) = setup();
        let mut rng = rand::thread_rng();
        let (mut client, mut server) =
            SecureChannel::establish_pair(client_cfg, server_cfg, &mut rng).unwrap();
        let mut record = client.seal(b"payload");
        let last = record.len() - 1;
        record[last] ^= 0x1;
        assert!(server.open(&record).is_err());
    }

    #[test]
    fn untrusted_peer_rejected() {
        let (client_cfg, server_cfg) = setup();
        // A rogue client with a self-signed certificate not in the trust store.
        let rogue = KeyPair::from_seed(b"rogue");
        let rogue_cert =
            CertificateBuilder::new("client:rogue", rogue.public()).issue_self_signed(&rogue);
        let rogue_cfg = ChannelConfig::new(rogue, rogue_cert, client_cfg.trust.clone(), 100);

        let mut rng = rand::thread_rng();
        let (msg, _pending) = SecureChannel::initiate(rogue_cfg, &mut rng);
        assert!(SecureChannel::respond(server_cfg, &msg, &mut rng).is_err());
    }

    #[test]
    fn forged_signature_rejected() {
        let (client_cfg, server_cfg) = setup();
        let mut rng = rand::thread_rng();
        let (mut msg, _pending) = SecureChannel::initiate(client_cfg, &mut rng);
        // Attacker substitutes its own ephemeral share without re-signing.
        msg.ephemeral_public[0] ^= 0xff;
        assert!(SecureChannel::respond(server_cfg, &msg, &mut rng).is_err());
    }

    #[test]
    fn expired_certificate_rejected() {
        let ca = KeyPair::from_seed(b"channel-ca");
        let client = KeyPair::from_seed(b"client");
        let server = KeyPair::from_seed(b"server");
        let mut trust = TrustStore::new();
        trust.add_root(ca.public());

        let expired = CertificateBuilder::new("client:old", client.public())
            .validity(0, 10)
            .issue("ca", &ca);
        let server_cert = CertificateBuilder::new("pesos", server.public()).issue("ca", &ca);

        let client_cfg = ChannelConfig::new(client, expired, trust.clone(), 100);
        let server_cfg = ChannelConfig::new(server, server_cert, trust, 100);
        let mut rng = rand::thread_rng();
        assert!(SecureChannel::establish_pair(client_cfg, server_cfg, &mut rng).is_err());
    }

    #[test]
    fn wrong_role_rejected() {
        let (client_cfg, server_cfg) = setup();
        let mut rng = rand::thread_rng();
        let (msg, pending) = SecureChannel::initiate(client_cfg, &mut rng);
        // Completing with an initiator message must fail.
        assert!(SecureChannel::complete(pending, &msg).is_err());
        // Responding to a responder message must fail.
        let (client_cfg2, _) = setup();
        let (resp_msg, _ep) = SecureChannel::respond(server_cfg, &msg, &mut rng).unwrap();
        let (_, pending2) = SecureChannel::initiate(client_cfg2, &mut rng);
        drop(pending2);
        assert!(matches!(
            SecureChannel::respond(setup().1, &resp_msg, &mut rng),
            Err(WireError::HandshakeFailed(_))
        ));
    }
}
