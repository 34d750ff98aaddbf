//! The Kinetic client library used by the Pesos controller.
//!
//! Mirrors the (adapted) Seagate C client the paper describes: a session per
//! drive with per-message HMAC authentication and synchronous
//! request/response operations (paper §3.1 "Kinetic library" and §4.3).
//! Asynchrony lives one layer up, in the SGX asyscall interface (paper
//! §4.6, `pesos_sgx::asyscall`): the store submits each of these calls as
//! a system-call body, so a session owns no thread and no queue.
//!
//! The "network" between client and drive is the in-process
//! [`KineticDrive::handle_envelope`] call, exchanging vectored frames
//! ([`crate::VectoredEnvelope`]): the authenticated envelopes are structurally and
//! cryptographically identical to the byte frames a real deployment would
//! put on the wire (materializing one with [`crate::VectoredEnvelope::encode`]
//! yields exactly those bytes, property-tested), but in process the payload
//! crosses as a shared buffer and the frame tag is checked with the folded
//! outer-transform verification — see the [`crate::protocol`] docs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pesos_crypto::hmac::HmacKey;

use crate::drive::{empty_secret_key, KineticDrive};
use crate::error::KineticError;
use crate::protocol::{
    AccountSpec, BatchOp, Command, CommandBody, Envelope, MessageType, Payload, StatusCode,
};

/// Configuration of a client session.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The identity used to authenticate messages.
    pub identity: i64,
    /// The shared HMAC secret for that identity.
    pub secret: Vec<u8>,
    /// The cluster version expected by the drive.
    pub cluster_version: u64,
}

impl ClientConfig {
    /// A configuration using the drive's factory-default demo account.
    pub fn factory_default() -> Self {
        ClientConfig {
            identity: 1,
            secret: b"asdfasdf".to_vec(),
            cluster_version: 0,
        }
    }

    /// A configuration for a Pesos administrative identity.
    pub fn admin(identity: i64, secret: Vec<u8>, cluster_version: u64) -> Self {
        ClientConfig {
            identity,
            secret,
            cluster_version,
        }
    }
}

/// A client session bound to one drive.
///
/// The HMAC key schedule for the session secret is run once at connect
/// time. Per exchange the client pays one streaming MAC pass to seal the
/// request (cached midstates, vectored chunks) and a single outer
/// compression to verify the response tag; the request-side re-hash happens
/// on the drive — in this simulation also as one outer compression, since
/// the chunks cross the boundary by reference (protocol module docs).
pub struct KineticClient {
    drive: Arc<KineticDrive>,
    config: ClientConfig,
    mac_key: HmacKey,
    connection_id: u64,
    sequence: AtomicU64,
}

impl KineticClient {
    /// Opens a session against `drive`.
    ///
    /// A `Noop` is exchanged to validate the credentials, mirroring the
    /// handshake/unsolicited status message of the real protocol.
    pub fn connect(drive: Arc<KineticDrive>, config: ClientConfig) -> Result<Self, KineticError> {
        // Random but with the top bit set, so its varint is always ten
        // bytes: every frame of every session is then the same length, and
        // so is the SHA-256 work of sealing and checking it.
        let connection_id = rand::random::<u64>() | 1 << 63 | 1;
        let mac_key = HmacKey::new(&config.secret);
        let client = KineticClient {
            drive,
            config,
            mac_key,
            connection_id,
            sequence: AtomicU64::new(1),
        };
        // Credential validation round trip.
        client.noop()?;
        Ok(client)
    }

    /// The drive this session is connected to.
    pub fn drive(&self) -> &Arc<KineticDrive> {
        &self.drive
    }

    /// The drive identifier.
    pub fn drive_id(&self) -> &str {
        self.drive.id()
    }

    fn next_command(&self, message_type: MessageType) -> Command {
        let mut cmd = Command::request(message_type);
        cmd.connection_id = self.connection_id;
        cmd.sequence = self.sequence.fetch_add(1, Ordering::SeqCst);
        cmd.cluster_version = self.config.cluster_version;
        cmd
    }

    /// Performs one request/response exchange over the in-process vectored
    /// frame path: no wire bytes are materialized, payloads cross by shared
    /// buffer, and the response tag is checked with the folded
    /// outer-transform verification.
    fn exchange(&self, command: Command) -> Result<Command, KineticError> {
        let envelope = Envelope::seal_vectored(self.config.identity, &self.mac_key, command);
        let response = self.drive.handle_envelope(&envelope);
        // Responses are authenticated with the session secret; an error
        // response produced before authentication uses an empty secret.
        if response.verified_by(&self.mac_key) || response.verified_by(empty_secret_key()) {
            Ok(response.into_command())
        } else {
            Err(KineticError::AuthenticationFailed)
        }
    }

    fn check_success(response: Command) -> Result<Command, KineticError> {
        if response.status.code.is_success() {
            Ok(response)
        } else {
            Err(KineticError::Rejected {
                code: response.status.code,
                message: response.status.message,
            })
        }
    }

    /// Sends a `Noop` (keep-alive / latency probe).
    pub fn noop(&self) -> Result<(), KineticError> {
        let cmd = self.next_command(MessageType::Noop);
        Self::check_success(self.exchange(cmd)?).map(|_| ())
    }

    /// Stores `value` under `key` with compare-and-swap semantics.
    pub fn put(
        &self,
        key: &[u8],
        value: impl Into<Payload>,
        expected_version: &[u8],
        new_version: &[u8],
        force: bool,
    ) -> Result<(), KineticError> {
        let mut cmd = self.next_command(MessageType::Put);
        cmd.body = CommandBody {
            key: key.to_vec(),
            value: value.into(),
            db_version: expected_version.to_vec(),
            new_version: new_version.to_vec(),
            force,
            ..CommandBody::default()
        };
        Self::check_success(self.exchange(cmd)?).map(|_| ())
    }

    /// Retrieves the value and version stored under `key`.
    pub fn get(&self, key: &[u8]) -> Result<(Payload, Vec<u8>), KineticError> {
        let mut cmd = self.next_command(MessageType::Get);
        cmd.body.key = key.to_vec();
        let resp = self.exchange(cmd)?;
        match resp.status.code {
            StatusCode::Success => Ok((resp.body.value, resp.body.db_version)),
            StatusCode::NotFound => Err(KineticError::NotFound),
            code => Err(KineticError::Rejected {
                code,
                message: resp.status.message,
            }),
        }
    }

    /// Deletes `key` with compare-and-swap semantics.
    pub fn delete(
        &self,
        key: &[u8],
        expected_version: &[u8],
        force: bool,
    ) -> Result<(), KineticError> {
        let mut cmd = self.next_command(MessageType::Delete);
        cmd.body.key = key.to_vec();
        cmd.body.db_version = expected_version.to_vec();
        cmd.body.force = force;
        let resp = self.exchange(cmd)?;
        match resp.status.code {
            StatusCode::Success => Ok(()),
            StatusCode::NotFound => Err(KineticError::NotFound),
            code => Err(KineticError::Rejected {
                code,
                message: resp.status.message,
            }),
        }
    }

    /// Applies `ops` (at most [`crate::protocol::MAX_BATCH_OPS`]) as one
    /// atomic batch: one authenticated frame, one drive round trip, every
    /// sub-operation applied or none. A rejected batch reports the failing
    /// sub-operation's status code. The list is shared (`Vec`s and arrays
    /// convert), so a caller replicating one batch to several drives hands
    /// each client a clone of the same `Arc`.
    pub fn batch(&self, ops: impl Into<Arc<[BatchOp]>>) -> Result<(), KineticError> {
        let mut cmd = self.next_command(MessageType::Batch);
        cmd.body.batch = ops.into();
        Self::check_success(self.exchange(cmd)?).map(|_| ())
    }

    /// Returns up to `max` keys in `[start, end]`.
    ///
    /// `max == 0` means "no results" and yields an empty listing — the
    /// limit travels explicitly on the wire, so the drive never substitutes
    /// a default page size for it.
    pub fn key_range(
        &self,
        start: &[u8],
        end: &[u8],
        max: u32,
    ) -> Result<Vec<Vec<u8>>, KineticError> {
        let mut cmd = self.next_command(MessageType::GetKeyRange);
        cmd.body.range_start = start.to_vec();
        cmd.body.range_end = end.to_vec();
        cmd.body.max_returned = max;
        let resp = Self::check_success(self.exchange(cmd)?)?;
        // Length-prefixed keys (see the drive's range handler): safe for
        // keys containing any byte.
        let mut rest: &[u8] = &resp.body.value;
        let mut keys = Vec::new();
        while !rest.is_empty() {
            let (len, tail) = rest.split_first_chunk::<4>().ok_or_else(|| {
                KineticError::Malformed("truncated key-range length prefix".into())
            })?;
            let (key, tail) = tail
                .split_at_checked(u32::from_be_bytes(*len) as usize)
                .ok_or_else(|| KineticError::Malformed("truncated key-range entry".into()))?;
            keys.push(key.to_vec());
            rest = tail;
        }
        Ok(keys)
    }

    /// Replaces the drive's accounts (administrative).
    pub fn replace_accounts(&self, accounts: Vec<AccountSpec>) -> Result<(), KineticError> {
        let mut cmd = self.next_command(MessageType::Security);
        cmd.body.security_accounts = accounts;
        Self::check_success(self.exchange(cmd)?).map(|_| ())
    }

    /// Runs device setup (cluster version change and/or erase).
    pub fn setup(&self, new_cluster_version: Option<u64>, erase: bool) -> Result<(), KineticError> {
        let mut cmd = self.next_command(MessageType::Setup);
        cmd.body.setup_new_cluster_version = new_cluster_version;
        cmd.body.setup_erase = erase;
        Self::check_success(self.exchange(cmd)?).map(|_| ())
    }

    /// Fetches the device log string.
    pub fn get_log(&self, log_type: &str) -> Result<String, KineticError> {
        let mut cmd = self.next_command(MessageType::GetLog);
        cmd.body.log_type = log_type.to_string();
        let resp = Self::check_success(self.exchange(cmd)?)?;
        String::from_utf8(resp.body.value.to_vec())
            .map_err(|_| KineticError::Malformed("log not UTF-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{DriveConfig, Permission};

    fn connected() -> (Arc<KineticDrive>, KineticClient) {
        let drive = Arc::new(KineticDrive::new(DriveConfig::simulator("kd-c")));
        let client = KineticClient::connect(Arc::clone(&drive), ClientConfig::factory_default())
            .expect("connect");
        (drive, client)
    }

    #[test]
    fn connect_validates_credentials() {
        let drive = Arc::new(KineticDrive::new(DriveConfig::simulator("kd-x")));
        let mut cfg = ClientConfig::factory_default();
        cfg.secret = b"wrong".to_vec();
        assert!(KineticClient::connect(drive, cfg).is_err());
    }

    #[test]
    fn every_session_frames_a_command_at_the_same_length() {
        let (drive, first) = connected();
        let length = first.next_command(MessageType::Noop).encode().len();
        for _ in 0..32 {
            let client =
                KineticClient::connect(Arc::clone(&drive), ClientConfig::factory_default())
                    .unwrap();
            assert!(client.connection_id >= 1 << 63);
            let command = client.next_command(MessageType::Noop);
            assert_eq!(command.encode().len(), length);
        }
    }

    #[test]
    fn put_get_delete_cycle() {
        let (_drive, client) = connected();
        client
            .put(b"user/1", b"alice".to_vec(), b"", b"v1", false)
            .unwrap();
        let (value, version) = client.get(b"user/1").unwrap();
        assert_eq!(value, b"alice");
        assert_eq!(version, b"v1");
        client.delete(b"user/1", b"v1", false).unwrap();
        assert_eq!(client.get(b"user/1"), Err(KineticError::NotFound));
    }

    #[test]
    fn version_conflicts_surface() {
        let (_drive, client) = connected();
        client.put(b"k", b"v1".to_vec(), b"", b"1", false).unwrap();
        let err = client
            .put(b"k", b"v2".to_vec(), b"wrong", b"2", false)
            .unwrap_err();
        assert!(matches!(
            err,
            KineticError::Rejected {
                code: StatusCode::VersionMismatch,
                ..
            }
        ));
    }

    #[test]
    fn batch_applies_and_maps_a_rejection() {
        // Atomicity and the shape rules are the drive's tests; this pins
        // the client's side: the list reaches the drive, and a refused
        // batch surfaces as `Rejected` with the failing sub-op's code.
        let (_drive, client) = connected();
        client
            .batch(vec![
                BatchOp::put_forced(b"o/k/0".to_vec(), b"data".to_vec(), b"v"),
                BatchOp::put_forced(b"m/k".to_vec(), b"meta".to_vec(), b"v"),
            ])
            .unwrap();
        assert_eq!(client.get(b"o/k/0").unwrap().0, b"data");
        assert_eq!(client.get(b"m/k").unwrap().0, b"meta");
        let err = client
            .batch([BatchOp::Put {
                key: b"m/k".to_vec(),
                value: b"meta2".into(),
                db_version: b"stale".to_vec(),
                new_version: b"v2".to_vec(),
                force: false,
            }])
            .unwrap_err();
        assert!(matches!(
            err,
            KineticError::Rejected {
                code: StatusCode::VersionMismatch,
                ..
            }
        ));
    }

    #[test]
    fn key_range_lists_keys() {
        let (_drive, client) = connected();
        for k in ["p/1", "p/2", "q/1"] {
            client
                .put(k.as_bytes(), b"v".to_vec(), b"", b"1", false)
                .unwrap();
        }
        let keys = client.key_range(b"p/", b"p/~", 100).unwrap();
        assert_eq!(keys, vec![b"p/1".to_vec(), b"p/2".to_vec()]);
        assert!(client.key_range(b"z", b"zz", 10).unwrap().is_empty());
        // A zero limit means "no results", never the drive's default page.
        assert!(client.key_range(b"p/", b"p/~", 0).unwrap().is_empty());
        // A range that starts after it ends is refused, and the drive
        // serves on.
        match client.key_range(b"p/~", b"p/", 10) {
            Err(KineticError::Rejected { code, .. }) => {
                assert_eq!(code, StatusCode::InvalidRequest)
            }
            other => panic!("reversed range answered {other:?}"),
        }
        assert_eq!(client.key_range(b"p/", b"p/~", 100).unwrap().len(), 2);
    }

    #[test]
    fn zero_byte_object_round_trips() {
        // Regression: a zero-length payload must stay a present, zero-length
        // object through the put/get cycle — the old encoder dropped the
        // empty value field, so presence depended on the payload size.
        let (_drive, client) = connected();
        client
            .put(b"empty/object", Vec::new(), b"", b"v1", false)
            .unwrap();
        let (value, version) = client.get(b"empty/object").unwrap();
        assert!(value.is_empty());
        assert_eq!(version, b"v1");
        // Distinct from a missing key.
        assert_eq!(client.get(b"empty/missing"), Err(KineticError::NotFound));
        client.delete(b"empty/object", b"v1", false).unwrap();
        assert_eq!(client.get(b"empty/object"), Err(KineticError::NotFound));
    }

    #[test]
    fn admin_operations_via_client() {
        let (_drive, client) = connected();
        // Take exclusive control like the Pesos bootstrap does.
        client
            .replace_accounts(vec![AccountSpec {
                identity: 7,
                secret: b"pesos".to_vec(),
                permissions: Permission::all(),
            }])
            .unwrap();
        // The old session's credentials stop working.
        assert!(client.noop().is_err());
    }

    #[test]
    fn getlog_and_setup() {
        let (drive, client) = connected();
        let log = client.get_log("utilization").unwrap();
        assert!(log.contains("id=kd-c"));
        client.put(b"k", b"v".to_vec(), b"", b"1", false).unwrap();
        client.setup(None, true).unwrap();
        assert_eq!(drive.key_count(), 0);
    }

    #[test]
    fn offline_drive_errors() {
        let (drive, client) = connected();
        drive.set_online(false);
        assert!(client.noop().is_err());
        assert!(client.get(b"k").is_err());
    }
}
