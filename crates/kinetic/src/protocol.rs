//! The Kinetic wire protocol.
//!
//! Real Kinetic drives exchange protobuf `Message`s wrapped in a 9-byte
//! header; each message carries an HMAC computed over the command bytes with
//! the secret of the issuing identity. We reproduce the same structure with
//! the protobuf-style codec from `pesos-wire`:
//!
//! ```text
//! frame := u32 length || message
//! message := identity (1) | hmac (2) | command_bytes (3)
//! command := header (1) | body (2) | status (3)
//! header  := connection_id (1) | sequence (2) | message_type (3) | cluster_version (4) | ack_sequence (5)
//! body    := key (1) | value (2) | db_version (3) | new_version (4) | force (5)
//!          | range_start (6) | range_end (7) | max_returned (8) | p2p_target (9)
//!          | setup_new_cluster_version (10) | setup_erase (11) | log_type (12)
//!          | security_accounts (13, repeated nested) | batch (14, repeated nested)
//! batch op := kind (1) | key (2) | value (3, PUT only) | db_version (4)
//!          | new_version (5, PUT only) | force (6)
//! ```
//!
//! Only the fields the Pesos controller actually uses are modelled, but the
//! decoder skips unknown fields so the format can grow.
//!
//! # Field presence
//!
//! `value`, `db_version`, `new_version` and `max_returned` are emitted
//! unconditionally, including when empty or zero. Earlier encoders dropped
//! empty fields, which silently changed meaning on decode: a zero-length
//! object payload became "absent", and a `GetKeyRange` with
//! `max_returned == 0` lost the field and had the drive substitute its
//! default page size. With unconditional emission, empty-but-present
//! round-trips and `max_returned == 0` travels as an explicit zero (the
//! drive honours it as "return no keys"). The remaining optional fields
//! (`key`, ranges, strings, booleans) keep presence-by-non-emptiness: for
//! them, empty and absent genuinely mean the same thing.
//!
//! # Atomic batches
//!
//! [`MessageType::Batch`] carries an ordered list of up to
//! [`MAX_BATCH_OPS`] PUT/DELETE sub-operations ([`BatchOp`]) in one
//! authenticated frame — the single-frame in-process equivalent of the real
//! protocol's `START_BATCH … END_BATCH` sequence. The drive applies the
//! list all-or-nothing (see [`crate::engine::DriveEngine::batch`]) and
//! answers with one response; the frame HMAC covers every sub-operation on
//! both the vectored and the serialized path, because the list is just one
//! more repeated body field.
//!
//! # Vectored frames
//!
//! [`Command::encode_vectored`] splits the command encoding into owned
//! chunks interleaved with the *borrowed* payloads (the body value and
//! every batch PUT's value: [`Payload`] reference-count bumps, no copies).
//! It is the only encoder in a shipped build. [`Envelope::seal_vectored`]
//! computes the frame HMAC in one streaming pass over the chunk sequence
//! with the session's cached [`HmacKey`] midstates and yields a
//! [`VectoredEnvelope`];
//! [`VectoredEnvelope::encode`] is a scatter-gather writer that gathers the
//! chunks straight into the output frame, so materializing a wire frame
//! copies the payload exactly once. On the in-process client↔drive path the
//! frame is never materialized at all: the envelope is handed to
//! [`crate::drive::KineticDrive::handle_envelope`] and the payload travels
//! from the sealing controller into the drive engine as one shared buffer.
//!
//! ## The test-only oracle
//!
//! The monolithic encoder the vectored one replaced — `Command::encode`,
//! `BatchOp::encode`, `Envelope::{seal, seal_with}` and `Envelope::encode`
//! — is compiled under `#[cfg(test)]` only. It is kept untouched, written
//! against `FieldWriter` where the vectored encoder uses raw varints, as an
//! independent implementation for the in-crate equivalence properties
//! (`wire_equivalence`): same command bytes, same tags, same frames, same
//! drive responses. Nothing outside this crate's tests can call it. The
//! byte *decode* path ([`Envelope::decode`], [`Envelope::open_with`],
//! [`Command::decode`]) is public and shipped: it is what checks input
//! that arrives as bytes.
//!
//! ## HMAC over the concatenation, folded verification
//!
//! The frame HMAC authenticates the concatenation of the chunks — the
//! bytes a monolithic encoder would MAC, so tags and wire frames are the
//! ones a real deployment puts on the wire.
//! Because HMAC is `outer(inner(message))`, sealing records the inner
//! digest next to the tag, and an in-process receiver verifies with
//! [`HmacKey::verify_inner`]: one compression re-running the outer
//! transform under *its own* key schedule. That check proves the tag was
//! produced under the shared session secret and is bound to the inner
//! commitment. It deliberately does not re-hash the message: inside one
//! process the chunks and the digest travel in the same immutable structure
//! and cannot desynchronize, which is exactly the trusted-boundary story —
//! in a real deployment the re-hash happens on the drive's own processor,
//! not on the controller's. The *serialized* trust boundary is
//! [`crate::drive::KineticDrive::handle_frame`]: a frame received as bytes
//! goes through [`Envelope::decode`] and the full two-pass
//! [`Envelope::open_with`], so tampered or wrong-secret byte frames are
//! rejected before anything runs.

use std::sync::Arc;

use pesos_crypto::hmac::HmacKey;
use pesos_crypto::Digest;
use pesos_wire::codec::{varint_len, write_varint, zigzag_encode, FieldReader, FieldWriter};

use crate::error::KineticError;

/// Protobuf tag byte prelude for a length-delimited field.
fn length_delimited_tag(out: &mut Vec<u8>, field: u32, len: usize) {
    write_varint(out, ((field as u64) << 3) | 2);
    write_varint(out, len as u64);
}

/// Operation types (mirrors the Kinetic `MessageType` enum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// Store a value.
    Put,
    /// Retrieve a value.
    Get,
    /// Delete a value.
    Delete,
    /// Retrieve a key range (used for recovery/scrubbing).
    GetKeyRange,
    /// No-op, used as a keep-alive and for latency probes.
    Noop,
    /// Replace the security configuration (accounts and ACLs).
    Security,
    /// Device setup: set cluster version and/or erase all data.
    Setup,
    /// Retrieve device information and statistics.
    GetLog,
    /// Push objects directly to a peer drive.
    PeerToPeerPush,
    /// Flush any volatile write-back state to stable media.
    Flush,
    /// A response message.
    Response,
    /// An atomic list of PUT/DELETE sub-operations ([`BatchOp`]).
    Batch,
}

impl MessageType {
    fn to_u64(self) -> u64 {
        match self {
            MessageType::Put => 1,
            MessageType::Get => 2,
            MessageType::Delete => 3,
            MessageType::GetKeyRange => 4,
            MessageType::Noop => 5,
            MessageType::Security => 6,
            MessageType::Setup => 7,
            MessageType::GetLog => 8,
            MessageType::PeerToPeerPush => 9,
            MessageType::Flush => 10,
            MessageType::Response => 11,
            MessageType::Batch => 12,
        }
    }

    fn from_u64(v: u64) -> Result<Self, KineticError> {
        Ok(match v {
            1 => MessageType::Put,
            2 => MessageType::Get,
            3 => MessageType::Delete,
            4 => MessageType::GetKeyRange,
            5 => MessageType::Noop,
            6 => MessageType::Security,
            7 => MessageType::Setup,
            8 => MessageType::GetLog,
            9 => MessageType::PeerToPeerPush,
            10 => MessageType::Flush,
            11 => MessageType::Response,
            12 => MessageType::Batch,
            other => {
                return Err(KineticError::Malformed(format!(
                    "unknown message type {other}"
                )))
            }
        })
    }
}

/// Status codes carried in responses (subset of the Kinetic enum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatusCode {
    /// Operation succeeded.
    Success,
    /// Key not found.
    NotFound,
    /// dbVersion precondition failed.
    VersionMismatch,
    /// The identity is not allowed to perform the operation.
    NotAuthorized,
    /// The message HMAC did not verify.
    HmacFailure,
    /// The request was malformed.
    InvalidRequest,
    /// The drive did not attempt the operation (offline, busy, ...).
    NotAttempted,
    /// The drive is out of space.
    NoSpace,
    /// An internal drive error occurred.
    InternalError,
}

impl StatusCode {
    fn to_u64(self) -> u64 {
        match self {
            StatusCode::Success => 1,
            StatusCode::NotFound => 2,
            StatusCode::VersionMismatch => 3,
            StatusCode::NotAuthorized => 4,
            StatusCode::HmacFailure => 5,
            StatusCode::InvalidRequest => 6,
            StatusCode::NotAttempted => 7,
            StatusCode::NoSpace => 8,
            StatusCode::InternalError => 9,
        }
    }

    fn from_u64(v: u64) -> Result<Self, KineticError> {
        Ok(match v {
            1 => StatusCode::Success,
            2 => StatusCode::NotFound,
            3 => StatusCode::VersionMismatch,
            4 => StatusCode::NotAuthorized,
            5 => StatusCode::HmacFailure,
            6 => StatusCode::InvalidRequest,
            7 => StatusCode::NotAttempted,
            8 => StatusCode::NoSpace,
            9 => StatusCode::InternalError,
            other => {
                return Err(KineticError::Malformed(format!(
                    "unknown status code {other}"
                )))
            }
        })
    }

    /// True for success.
    pub fn is_success(self) -> bool {
        self == StatusCode::Success
    }
}

/// A security account definition carried in a `Security` command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountSpec {
    /// Numeric identity.
    pub identity: i64,
    /// Shared HMAC secret.
    pub secret: Vec<u8>,
    /// Permission bits (see [`crate::drive::Permission`]).
    pub permissions: u32,
}

/// A reference-counted, immutable value payload.
///
/// Replication fans one object write out to several drives; sharing the
/// payload bytes through an `Arc` means enqueueing a command for each
/// replica is a reference-count bump, not a copy. The only copies left on
/// the write path are the per-replica wire-frame encode/decode, which model
/// the network boundary the cost model charges anyway.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// Creates an empty payload.
    pub fn new() -> Self {
        Payload::default()
    }

    /// The shared underlying buffer.
    pub fn as_arc(&self) -> &Arc<[u8]> {
        &self.0
    }

    /// Copies the payload into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// A payload of `len` bytes that `fill` writes into the shared buffer
    /// itself (handed to it zeroed), so bytes produced for a payload are
    /// never copied out of a temporary vector.
    pub fn from_fn(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        if let Some(buffer) = Arc::get_mut(&mut bytes) {
            fill(buffer);
        }
        Payload(bytes)
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload(Arc::from(bytes))
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload(Arc::from(bytes))
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(bytes: &[u8; N]) -> Self {
        Payload(Arc::from(&bytes[..]))
    }
}

impl From<Arc<[u8]>> for Payload {
    fn from(bytes: Arc<[u8]>) -> Self {
        Payload(bytes)
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &*self.0 == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        *self.0 == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        *self.0 == other[..]
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({} bytes)", self.0.len())
    }
}

/// Most sub-operations one [`MessageType::Batch`] may carry (the limit the
/// Kinetic simulator advertises). A constant of the protocol, enforced by
/// the drive; callers with more work chunk at it.
pub const MAX_BATCH_OPS: usize = 15;

/// One sub-operation of an atomic [`MessageType::Batch`].
///
/// Preconditions are those of the standalone commands — `db_version` must
/// equal the stored version (empty = "no entry") unless `force` is set —
/// with one difference: a *forced* DELETE of a missing key succeeds instead
/// of reporting `NotFound`, because inside an all-or-nothing list "remove
/// it if it is there" must not abort the writes that ride along.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Store `value` under `key`.
    Put {
        /// Object key.
        key: Vec<u8>,
        /// Object value (shared, never copied on the vectored path).
        value: Payload,
        /// Expected stored version.
        db_version: Vec<u8>,
        /// Version to store.
        new_version: Vec<u8>,
        /// Ignore the version precondition.
        force: bool,
    },
    /// Remove `key`.
    Delete {
        /// Object key.
        key: Vec<u8>,
        /// Expected stored version.
        db_version: Vec<u8>,
        /// Ignore the version precondition (and a missing key).
        force: bool,
    },
}

impl BatchOp {
    const KIND_PUT: u64 = 1;
    const KIND_DELETE: u64 = 2;

    /// An unconditional PUT storing `value` at `new_version`.
    pub fn put_forced(key: Vec<u8>, value: impl Into<Payload>, new_version: &[u8]) -> Self {
        BatchOp::Put {
            key,
            value: value.into(),
            db_version: Vec::new(),
            new_version: new_version.to_vec(),
            force: true,
        }
    }

    /// A compare-and-swap PUT against "no entry": stores `value` at
    /// `new_version` only if the drive holds nothing under `key`, and
    /// otherwise fails the whole batch with `VersionMismatch`. The
    /// existence check and the write are one step under the engine lock.
    pub fn put_if_absent(key: Vec<u8>, value: impl Into<Payload>, new_version: &[u8]) -> Self {
        BatchOp::Put {
            key,
            value: value.into(),
            db_version: Vec::new(),
            new_version: new_version.to_vec(),
            force: false,
        }
    }

    /// An unconditional DELETE (a missing key is fine).
    pub fn delete_forced(key: Vec<u8>) -> Self {
        BatchOp::Delete {
            key,
            db_version: Vec::new(),
            force: true,
        }
    }

    /// The key the sub-operation addresses.
    pub fn key(&self) -> &[u8] {
        match self {
            BatchOp::Put { key, .. } | BatchOp::Delete { key, .. } => key,
        }
    }

    /// True for a PUT.
    pub fn is_put(&self) -> bool {
        matches!(self, BatchOp::Put { .. })
    }

    /// Key plus value bytes: what the sub-operation moves to or from the
    /// media (the unit the HDD model's transfer time is charged over).
    pub fn io_bytes(&self) -> usize {
        match self {
            BatchOp::Put { key, value, .. } => key.len() + value.len(),
            BatchOp::Delete { key, .. } => key.len(),
        }
    }

    /// Monolithic sub-message encoding (the [`Command::encode`] side of the
    /// test-only oracle).
    #[cfg(test)]
    fn encode(&self) -> FieldWriter {
        let mut w = FieldWriter::new();
        match self {
            BatchOp::Put {
                key,
                value,
                db_version,
                new_version,
                force,
            } => {
                w.uint64(1, Self::KIND_PUT)
                    .bytes(2, key)
                    .bytes(3, value)
                    .bytes(4, db_version)
                    .bytes(5, new_version);
                if *force {
                    w.boolean(6, true);
                }
            }
            BatchOp::Delete {
                key,
                db_version,
                force,
            } => {
                w.uint64(1, Self::KIND_DELETE)
                    .bytes(2, key)
                    .bytes(4, db_version);
                if *force {
                    w.boolean(6, true);
                }
            }
        }
        w
    }

    fn decode(data: &[u8]) -> Result<Self, KineticError> {
        let (mut kind, mut force) = (0, false);
        let (mut key, mut db_version, mut new_version) = (Vec::new(), Vec::new(), Vec::new());
        let mut value = Payload::new();
        for f in FieldReader::new(data)
            .collect_fields()
            .map_err(|e| KineticError::Malformed(e.to_string()))?
        {
            match f.number {
                1 => kind = f.value,
                2 => key = f.data.to_vec(),
                3 => value = f.data.into(),
                4 => db_version = f.data.to_vec(),
                5 => new_version = f.data.to_vec(),
                6 => force = f.as_bool(),
                _ => {}
            }
        }
        match kind {
            Self::KIND_PUT => Ok(BatchOp::Put {
                key,
                value,
                db_version,
                new_version,
                force,
            }),
            Self::KIND_DELETE => Ok(BatchOp::Delete {
                key,
                db_version,
                force,
            }),
            other => Err(KineticError::Malformed(format!(
                "unknown batch sub-operation kind {other}"
            ))),
        }
    }
}

/// The body of a command; which fields are meaningful depends on the type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommandBody {
    /// Object key.
    pub key: Vec<u8>,
    /// Object value (PUT, responses to GET).
    pub value: Payload,
    /// Expected stored version for compare-and-swap semantics.
    pub db_version: Vec<u8>,
    /// New version to store.
    pub new_version: Vec<u8>,
    /// Ignore the version precondition.
    pub force: bool,
    /// Range scan start key (inclusive).
    pub range_start: Vec<u8>,
    /// Range scan end key (inclusive).
    pub range_end: Vec<u8>,
    /// Maximum number of keys returned by a range scan.
    pub max_returned: u32,
    /// Target drive identifier for P2P push.
    pub p2p_target: String,
    /// New cluster version for `Setup`.
    pub setup_new_cluster_version: Option<u64>,
    /// Request an instant secure erase in `Setup`.
    pub setup_erase: bool,
    /// Log type requested by `GetLog` (free-form label).
    pub log_type: String,
    /// Account definitions for `Security`.
    pub security_accounts: Vec<AccountSpec>,
    /// Sub-operations of a `Batch`, in application order. Shared, not
    /// owned: a replicated write hands the same list to every replica's
    /// command, so fan-out costs a reference-count bump per drive.
    pub batch: Arc<[BatchOp]>,
}

/// A protocol command (request or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Connection identifier assigned by the drive at handshake time.
    pub connection_id: u64,
    /// Monotonically increasing per-connection sequence number.
    pub sequence: u64,
    /// The operation.
    pub message_type: MessageType,
    /// The cluster version the issuer believes the drive is at.
    pub cluster_version: u64,
    /// For responses: the sequence number being acknowledged.
    pub ack_sequence: u64,
    /// Operation payload.
    pub body: CommandBody,
    /// Response status (requests use `Success`/empty message).
    pub status: ResponseStatus,
}

/// Status portion of a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseStatus {
    /// The code.
    pub code: StatusCode,
    /// Optional detail message.
    pub message: String,
}

impl Default for ResponseStatus {
    fn default() -> Self {
        ResponseStatus {
            code: StatusCode::Success,
            message: String::new(),
        }
    }
}

impl Command {
    /// Creates a request command.
    pub fn request(message_type: MessageType) -> Self {
        Command {
            connection_id: 0,
            sequence: 0,
            message_type,
            cluster_version: 0,
            ack_sequence: 0,
            body: CommandBody::default(),
            status: ResponseStatus::default(),
        }
    }

    /// Creates a response acknowledging `request` with the given status.
    pub fn response_to(request: &Command, code: StatusCode, message: impl Into<String>) -> Self {
        Command {
            connection_id: request.connection_id,
            sequence: 0,
            message_type: MessageType::Response,
            cluster_version: request.cluster_version,
            ack_sequence: request.sequence,
            body: CommandBody::default(),
            status: ResponseStatus {
                code,
                message: message.into(),
            },
        }
    }

    /// Encodes the command (without the outer authenticated envelope):
    /// the monolithic encoder, kept as the test-only equivalence oracle
    /// for [`Command::encode_vectored`] (module docs).
    #[cfg(test)]
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut header = FieldWriter::new();
        header
            .uint64(1, self.connection_id)
            .uint64(2, self.sequence)
            .uint64(3, self.message_type.to_u64())
            .uint64(4, self.cluster_version)
            .uint64(5, self.ack_sequence);

        let mut body = FieldWriter::new();
        let b = &self.body;
        if !b.key.is_empty() {
            body.bytes(1, &b.key);
        }
        // value, db_version, new_version and max_returned are emitted even
        // when empty/zero: dropping them would turn a present-but-empty
        // payload into "absent" and a zero page limit into the drive's
        // default page size (see the module docs on field presence).
        body.bytes(2, &b.value);
        body.bytes(3, &b.db_version);
        body.bytes(4, &b.new_version);
        if b.force {
            body.boolean(5, true);
        }
        if !b.range_start.is_empty() {
            body.bytes(6, &b.range_start);
        }
        if !b.range_end.is_empty() {
            body.bytes(7, &b.range_end);
        }
        body.uint64(8, b.max_returned as u64);
        if !b.p2p_target.is_empty() {
            body.string(9, &b.p2p_target);
        }
        if let Some(v) = b.setup_new_cluster_version {
            body.uint64(10, v);
        }
        if b.setup_erase {
            body.boolean(11, true);
        }
        if !b.log_type.is_empty() {
            body.string(12, &b.log_type);
        }
        for account in &b.security_accounts {
            let mut acc = FieldWriter::new();
            acc.sint64(1, account.identity)
                .bytes(2, &account.secret)
                .uint64(3, account.permissions as u64);
            body.message(13, &acc);
        }
        for op in b.batch.iter() {
            body.message(14, &op.encode());
        }

        let mut status = FieldWriter::new();
        status.uint64(1, self.status.code.to_u64());
        if !self.status.message.is_empty() {
            status.string(2, &self.status.message);
        }

        let mut command = FieldWriter::new();
        command
            .message(1, &header)
            .message(2, &body)
            .message(3, &status);
        command.finish()
    }

    /// Decodes a command from its encoding.
    pub fn decode(data: &[u8]) -> Result<Self, KineticError> {
        let malformed = |msg: &str| KineticError::Malformed(msg.to_string());
        let fields = FieldReader::new(data)
            .collect_fields()
            .map_err(|e| KineticError::Malformed(e.to_string()))?;

        let mut cmd = Command::request(MessageType::Noop);
        let mut saw_header = false;
        let mut batch = Vec::new();

        for field in fields {
            match field.number {
                1 => {
                    saw_header = true;
                    for f in FieldReader::new(field.data)
                        .collect_fields()
                        .map_err(|e| KineticError::Malformed(e.to_string()))?
                    {
                        match f.number {
                            1 => cmd.connection_id = f.value,
                            2 => cmd.sequence = f.value,
                            3 => cmd.message_type = MessageType::from_u64(f.value)?,
                            4 => cmd.cluster_version = f.value,
                            5 => cmd.ack_sequence = f.value,
                            _ => {}
                        }
                    }
                }
                2 => {
                    for f in FieldReader::new(field.data)
                        .collect_fields()
                        .map_err(|e| KineticError::Malformed(e.to_string()))?
                    {
                        match f.number {
                            1 => cmd.body.key = f.data.to_vec(),
                            2 => cmd.body.value = f.data.into(),
                            3 => cmd.body.db_version = f.data.to_vec(),
                            4 => cmd.body.new_version = f.data.to_vec(),
                            5 => cmd.body.force = f.as_bool(),
                            6 => cmd.body.range_start = f.data.to_vec(),
                            7 => cmd.body.range_end = f.data.to_vec(),
                            8 => cmd.body.max_returned = f.value as u32,
                            9 => {
                                cmd.body.p2p_target = f
                                    .as_str()
                                    .map_err(|_| malformed("p2p target not UTF-8"))?
                                    .to_string()
                            }
                            10 => cmd.body.setup_new_cluster_version = Some(f.value),
                            11 => cmd.body.setup_erase = f.as_bool(),
                            12 => {
                                cmd.body.log_type = f
                                    .as_str()
                                    .map_err(|_| malformed("log type not UTF-8"))?
                                    .to_string()
                            }
                            13 => {
                                let mut spec = AccountSpec {
                                    identity: 0,
                                    secret: Vec::new(),
                                    permissions: 0,
                                };
                                for af in FieldReader::new(f.data)
                                    .collect_fields()
                                    .map_err(|e| KineticError::Malformed(e.to_string()))?
                                {
                                    match af.number {
                                        1 => spec.identity = af.as_sint64(),
                                        2 => spec.secret = af.data.to_vec(),
                                        3 => spec.permissions = af.value as u32,
                                        _ => {}
                                    }
                                }
                                cmd.body.security_accounts.push(spec);
                            }
                            14 => batch.push(BatchOp::decode(f.data)?),
                            _ => {}
                        }
                    }
                }
                3 => {
                    for f in FieldReader::new(field.data)
                        .collect_fields()
                        .map_err(|e| KineticError::Malformed(e.to_string()))?
                    {
                        match f.number {
                            1 => cmd.status.code = StatusCode::from_u64(f.value)?,
                            2 => {
                                cmd.status.message = f
                                    .as_str()
                                    .map_err(|_| malformed("status message not UTF-8"))?
                                    .to_string()
                            }
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }

        if !saw_header {
            return Err(malformed("missing command header"));
        }
        cmd.body.batch = batch.into();
        Ok(cmd)
    }

    /// Encodes the command as scatter-gather chunks: owned byte runs
    /// interleaved with the *borrowed* payloads — the body value and every
    /// batch PUT's value ([`Payload`] reference-count bumps, no copies).
    ///
    /// Every length, nested ones included, is computed arithmetically
    /// first, so the owned runs are written straight into one buffer of
    /// their final size, in frame order: a frame costs that buffer, plus
    /// one list of splice points when it carries a payload.
    ///
    /// The concatenation of the chunks is byte-identical to the monolithic
    /// `Command::encode`, which is kept under `cfg(test)` as an independent
    /// implementation so the property tests can use it as the equivalence
    /// oracle. This method is written against the raw varint primitives
    /// rather than sharing helpers with it, so a bug cannot hide in code
    /// common to both.
    pub fn encode_vectored(&self) -> VectoredCommand {
        let b = &self.body;
        let header = [
            self.connection_id,
            self.sequence,
            self.message_type.to_u64(),
            self.cluster_version,
            self.ack_sequence,
        ];
        let header_len: usize = (1..).zip(header).map(|(f, v)| varint_field_len(f, v)).sum();
        let puts = || {
            b.batch.iter().filter_map(|op| match op {
                BatchOp::Put { value, .. } => Some(value),
                BatchOp::Delete { .. } => None,
            })
        };
        let body_len = optional_bytes_len(1, &b.key)
            + bytes_field_len(2, b.value.len())
            + bytes_field_len(3, b.db_version.len())
            + bytes_field_len(4, b.new_version.len())
            + if b.force { varint_field_len(5, 1) } else { 0 }
            + optional_bytes_len(6, &b.range_start)
            + optional_bytes_len(7, &b.range_end)
            + varint_field_len(8, u64::from(b.max_returned))
            + optional_bytes_len(9, b.p2p_target.as_bytes())
            + b.setup_new_cluster_version
                .map_or(0, |v| varint_field_len(10, v))
            + if b.setup_erase {
                varint_field_len(11, 1)
            } else {
                0
            }
            + optional_bytes_len(12, b.log_type.as_bytes())
            + b.security_accounts
                .iter()
                .map(|a| bytes_field_len(13, account_len(a)))
                .sum::<usize>()
            + b.batch
                .iter()
                .map(|op| bytes_field_len(14, op_len(op)))
                .sum::<usize>();
        let status_len = varint_field_len(1, self.status.code.to_u64())
            + optional_bytes_len(2, self.status.message.as_bytes());
        let frame_len = bytes_field_len(1, header_len)
            + bytes_field_len(2, body_len)
            + bytes_field_len(3, status_len);
        let payload_len = b.value.len() + puts().map(|v| v.len()).sum::<usize>();
        let splices = usize::from(!b.value.is_empty()) + puts().filter(|v| !v.is_empty()).count();

        let mut out = FrameWriter {
            owned: Vec::with_capacity(frame_len - payload_len),
            shared: Vec::with_capacity(splices),
        };
        out.open(1, header_len);
        for (field, value) in (1..).zip(header) {
            out.varint(field, value);
        }
        // value, db_version, new_version and max_returned are emitted even
        // when empty/zero (module docs, "Field presence").
        out.open(2, body_len);
        out.optional_bytes(1, &b.key);
        out.payload(2, &b.value);
        out.bytes(3, &b.db_version);
        out.bytes(4, &b.new_version);
        if b.force {
            out.varint(5, 1);
        }
        out.optional_bytes(6, &b.range_start);
        out.optional_bytes(7, &b.range_end);
        out.varint(8, u64::from(b.max_returned));
        out.optional_bytes(9, b.p2p_target.as_bytes());
        if let Some(version) = b.setup_new_cluster_version {
            out.varint(10, version);
        }
        if b.setup_erase {
            out.varint(11, 1);
        }
        out.optional_bytes(12, b.log_type.as_bytes());
        for account in &b.security_accounts {
            out.open(13, account_len(account));
            out.varint(1, zigzag_encode(account.identity));
            out.bytes(2, &account.secret);
            out.varint(3, u64::from(account.permissions));
        }
        for op in b.batch.iter() {
            out.open(14, op_len(op));
            match op {
                BatchOp::Put {
                    key,
                    value,
                    db_version,
                    new_version,
                    force,
                } => {
                    out.varint(1, BatchOp::KIND_PUT);
                    out.bytes(2, key);
                    out.payload(3, value);
                    out.bytes(4, db_version);
                    out.bytes(5, new_version);
                    if *force {
                        out.varint(6, 1);
                    }
                }
                BatchOp::Delete {
                    key,
                    db_version,
                    force,
                } => {
                    out.varint(1, BatchOp::KIND_DELETE);
                    out.bytes(2, key);
                    out.bytes(4, db_version);
                    if *force {
                        out.varint(6, 1);
                    }
                }
            }
        }
        out.open(3, status_len);
        out.varint(1, self.status.code.to_u64());
        out.optional_bytes(2, self.status.message.as_bytes());
        debug_assert_eq!(out.owned.len() + payload_len, frame_len);
        VectoredCommand {
            owned: out.owned,
            shared: out.shared,
        }
    }
}

/// Bytes of the varint field `field` carrying `value`.
fn varint_field_len(field: u32, value: u64) -> usize {
    varint_len(u64::from(field) << 3) + varint_len(value)
}

/// Bytes of the length-delimited field `field` carrying `len` bytes.
fn bytes_field_len(field: u32, len: usize) -> usize {
    varint_len(u64::from(field) << 3 | 2) + varint_len(len as u64) + len
}

/// Bytes of a length-delimited field that is left out when empty.
fn optional_bytes_len(field: u32, bytes: &[u8]) -> usize {
    if bytes.is_empty() {
        0
    } else {
        bytes_field_len(field, bytes.len())
    }
}

/// Bytes of an account's sub-message, without its own tag and length.
fn account_len(account: &AccountSpec) -> usize {
    varint_field_len(1, zigzag_encode(account.identity))
        + bytes_field_len(2, account.secret.len())
        + varint_field_len(3, u64::from(account.permissions))
}

/// Bytes of a batch sub-operation's sub-message, without its own tag and
/// length.
fn op_len(op: &BatchOp) -> usize {
    let force = |force: bool| if force { varint_field_len(6, 1) } else { 0 };
    match op {
        BatchOp::Put {
            key,
            value,
            db_version,
            new_version,
            force: f,
        } => {
            varint_field_len(1, BatchOp::KIND_PUT)
                + bytes_field_len(2, key.len())
                + bytes_field_len(3, value.len())
                + bytes_field_len(4, db_version.len())
                + bytes_field_len(5, new_version.len())
                + force(*f)
        }
        BatchOp::Delete {
            key,
            db_version,
            force: f,
        } => {
            varint_field_len(1, BatchOp::KIND_DELETE)
                + bytes_field_len(2, key.len())
                + bytes_field_len(4, db_version.len())
                + force(*f)
        }
    }
}

/// The owned bytes of a command being encoded, and where its payloads go.
struct FrameWriter {
    owned: Vec<u8>,
    shared: Vec<(usize, Payload)>,
}

impl FrameWriter {
    fn varint(&mut self, field: u32, value: u64) {
        write_varint(&mut self.owned, u64::from(field) << 3);
        write_varint(&mut self.owned, value);
    }

    /// The tag and length of a nested message whose fields follow.
    fn open(&mut self, field: u32, len: usize) {
        length_delimited_tag(&mut self.owned, field, len);
    }

    fn bytes(&mut self, field: u32, bytes: &[u8]) {
        length_delimited_tag(&mut self.owned, field, bytes.len());
        self.owned.extend_from_slice(bytes);
    }

    fn optional_bytes(&mut self, field: u32, bytes: &[u8]) {
        if !bytes.is_empty() {
            self.bytes(field, bytes);
        }
    }

    /// A payload field: its tag and length are owned, its bytes borrowed.
    /// An empty payload contributes no bytes and so no splice.
    fn payload(&mut self, field: u32, payload: &Payload) {
        length_delimited_tag(&mut self.owned, field, payload.len());
        if !payload.is_empty() {
            self.shared.push((self.owned.len(), payload.clone()));
        }
    }
}

/// A command encoded as scatter-gather chunks.
///
/// The concatenation of the chunks is the command's wire encoding; every
/// non-empty payload (the body value, each batch PUT's value) is its own
/// chunk holding the shared [`Payload`] buffer, never a copy, and the
/// bytes between them are runs of one owned buffer. Produced by
/// [`Command::encode_vectored`].
#[derive(Debug, Clone)]
pub struct VectoredCommand {
    /// Every byte the encoder wrote, in frame order, the payloads left out.
    owned: Vec<u8>,
    /// Each non-empty payload, after the offset into `owned` it follows.
    shared: Vec<(usize, Payload)>,
}

impl VectoredCommand {
    /// The chunk sequence, in frame order.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        let run = |from: usize, to: usize| self.owned.get(from..to).unwrap_or_default();
        let starts = std::iter::once(0).chain(self.shared.iter().map(|(at, _)| *at));
        let tail = self.shared.last().map_or(0, |(at, _)| *at);
        starts
            .zip(&self.shared)
            .flat_map(move |(from, (at, payload))| [run(from, *at), &payload[..]])
            .chain(std::iter::once(run(tail, self.owned.len())))
            .filter(|chunk| !chunk.is_empty())
    }

    /// The borrowed payload buffers among the chunks, in frame order.
    #[cfg(test)]
    fn shared_payloads(&self) -> impl Iterator<Item = &Payload> {
        self.shared.iter().map(|(_, payload)| payload)
    }

    /// Total encoded length of the command.
    pub fn encoded_len(&self) -> usize {
        self.owned.len() + self.shared.iter().map(|(_, p)| p.len()).sum::<usize>()
    }

    /// Materializes the contiguous command encoding (one copy of every
    /// chunk, including the payloads). Only needed when command bytes must
    /// actually leave the process.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        for chunk in self.chunks() {
            out.extend_from_slice(chunk);
        }
        out
    }
}

/// The authenticated envelope around a command: identity + HMAC + bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The numeric identity of the issuer.
    pub identity: i64,
    /// HMAC-SHA256 over the command bytes with the identity's secret.
    pub hmac: Vec<u8>,
    /// The encoded command.
    pub command_bytes: Vec<u8>,
}

impl Envelope {
    /// Wraps and authenticates a command, running the full HMAC key
    /// schedule for `secret` (test-only oracle, module docs).
    #[cfg(test)]
    pub(crate) fn seal(identity: i64, secret: &[u8], command: &Command) -> Self {
        Envelope::seal_with(identity, &HmacKey::new(secret), command)
    }

    /// Wraps and authenticates a command with a precomputed key schedule
    /// over the monolithic encoding (test-only oracle, module docs).
    #[cfg(test)]
    pub(crate) fn seal_with(identity: i64, key: &HmacKey, command: &Command) -> Self {
        let command_bytes = command.encode();
        let hmac = key.mac(&command_bytes).to_vec();
        Envelope {
            identity,
            hmac,
            command_bytes,
        }
    }

    /// Wraps and authenticates a command as a [`VectoredEnvelope`]: the
    /// frame HMAC is computed in one streaming pass over the vectored
    /// chunk sequence (cached `key` midstates, payload borrowed, no
    /// intermediate `command_bytes` buffer), folding separate encode and
    /// MAC passes — and, via the recorded inner digest, the in-process
    /// receiver's re-hash — into that single pass.
    pub fn seal_vectored(identity: i64, key: &HmacKey, command: Command) -> VectoredEnvelope {
        let frame = command.encode_vectored();
        let mut hasher = key.hasher();
        for chunk in frame.chunks() {
            hasher.update(chunk);
        }
        let (inner, hmac) = hasher.finalize_with_inner();
        VectoredEnvelope {
            identity,
            hmac,
            inner,
            frame,
            command,
        }
    }

    /// Verifies the HMAC with `secret` and decodes the inner command.
    pub fn open(&self, secret: &[u8]) -> Result<Command, KineticError> {
        self.open_with(&HmacKey::new(secret))
    }

    /// Verifies the HMAC with a precomputed key schedule and decodes the
    /// inner command.
    pub fn open_with(&self, key: &HmacKey) -> Result<Command, KineticError> {
        if !key.verify(&self.command_bytes, &self.hmac) {
            return Err(KineticError::AuthenticationFailed);
        }
        Command::decode(&self.command_bytes)
    }

    /// Encodes the envelope for transmission (test-only oracle for
    /// [`VectoredEnvelope::encode`], module docs).
    #[cfg(test)]
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = FieldWriter::new();
        w.sint64(1, self.identity)
            .bytes(2, &self.hmac)
            .bytes(3, &self.command_bytes);
        w.finish()
    }

    /// Decodes an envelope.
    pub fn decode(data: &[u8]) -> Result<Self, KineticError> {
        let fields = FieldReader::new(data)
            .collect_fields()
            .map_err(|e| KineticError::Malformed(e.to_string()))?;
        let mut identity = None;
        let mut hmac = Vec::new();
        let mut command_bytes = Vec::new();
        for f in fields {
            match f.number {
                1 => identity = Some(f.as_sint64()),
                2 => hmac = f.data.to_vec(),
                3 => command_bytes = f.data.to_vec(),
                _ => {}
            }
        }
        let identity =
            identity.ok_or_else(|| KineticError::Malformed("missing identity".into()))?;
        if command_bytes.is_empty() {
            return Err(KineticError::Malformed("missing command bytes".into()));
        }
        Ok(Envelope {
            identity,
            hmac,
            command_bytes,
        })
    }
}

/// An authenticated frame in scatter-gather form: the in-process
/// representation of a wire frame.
///
/// Created by [`Envelope::seal_vectored`]. The command travels alongside
/// its encoded chunks (the payload is the same shared [`Payload`] buffer in
/// both), so the in-process receiver neither re-decodes nor copies
/// anything. [`VectoredEnvelope::encode`] materializes the wire frame when
/// bytes are actually needed. See the module docs for the
/// folded-verification security argument and its trust boundary.
#[derive(Debug, Clone)]
pub struct VectoredEnvelope {
    identity: i64,
    /// HMAC-SHA256 over the concatenated chunks, i.e. over the
    /// `command_bytes` of the frame once materialized.
    hmac: Digest,
    /// The inner digest of that HMAC (`sha256(ipad-block || frame bytes)`),
    /// recorded at seal time so an in-process receiver can verify the tag
    /// with one outer compression ([`HmacKey::verify_inner`]).
    inner: Digest,
    frame: VectoredCommand,
    command: Command,
}

impl VectoredEnvelope {
    /// The numeric identity of the issuer.
    pub fn identity(&self) -> i64 {
        self.identity
    }

    /// The frame authentication tag.
    pub fn hmac(&self) -> &Digest {
        &self.hmac
    }

    /// The sealed command.
    pub fn command(&self) -> &Command {
        &self.command
    }

    /// Consumes the envelope, returning the sealed command.
    pub fn into_command(self) -> Command {
        self.command
    }

    /// Verifies the frame tag against `key` without re-hashing the frame:
    /// one compression re-runs the outer HMAC transform over the recorded
    /// inner digest. Sound only because the chunks and the digest travel
    /// together inside one process (module docs); serialized frames must go
    /// through [`Envelope::open_with`].
    pub fn verified_by(&self, key: &HmacKey) -> bool {
        key.verify_inner(&self.inner, &self.hmac)
    }

    /// The scatter-gather frame writer: materializes the wire frame by
    /// gathering identity, tag and the command chunks straight into one
    /// output buffer — the payload is copied exactly once, here, and
    /// nowhere else on the encode path. Byte-identical to the oracle's
    /// `Envelope::seal_with(..).encode()` (property-tested).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = FieldWriter::with_capacity(self.frame.encoded_len() + 48);
        w.sint64(1, self.identity)
            .bytes(2, &self.hmac)
            .bytes_from_parts(3, &self.frame.chunks().collect::<Vec<_>>());
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_command() -> Command {
        let mut cmd = Command::request(MessageType::Put);
        cmd.connection_id = 77;
        cmd.sequence = 5;
        cmd.cluster_version = 2;
        cmd.body.key = b"object/alpha".to_vec();
        cmd.body.value = vec![1, 2, 3, 4, 5].into();
        cmd.body.new_version = b"v2".to_vec();
        cmd.body.db_version = b"v1".to_vec();
        cmd.body.force = false;
        cmd
    }

    #[test]
    fn command_round_trip() {
        let cmd = sample_command();
        let decoded = Command::decode(&cmd.encode()).unwrap();
        assert_eq!(decoded, cmd);
    }

    #[test]
    fn response_round_trip() {
        let req = sample_command();
        let mut resp = Command::response_to(&req, StatusCode::VersionMismatch, "stored v3");
        resp.body.value = b"payload".into();
        let decoded = Command::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.message_type, MessageType::Response);
        assert_eq!(decoded.ack_sequence, 5);
        assert_eq!(decoded.status.code, StatusCode::VersionMismatch);
        assert_eq!(decoded.status.message, "stored v3");
        assert_eq!(decoded.body.value, b"payload");
    }

    #[test]
    fn security_command_round_trip() {
        let mut cmd = Command::request(MessageType::Security);
        cmd.body.security_accounts = vec![
            AccountSpec {
                identity: 1,
                secret: b"admin-secret".to_vec(),
                permissions: 0xff,
            },
            AccountSpec {
                identity: -42,
                secret: b"other".to_vec(),
                permissions: 0x3,
            },
        ];
        let decoded = Command::decode(&cmd.encode()).unwrap();
        assert_eq!(decoded.body.security_accounts, cmd.body.security_accounts);
    }

    #[test]
    fn setup_and_getlog_round_trip() {
        let mut cmd = Command::request(MessageType::Setup);
        cmd.body.setup_new_cluster_version = Some(9);
        cmd.body.setup_erase = true;
        let decoded = Command::decode(&cmd.encode()).unwrap();
        assert_eq!(decoded.body.setup_new_cluster_version, Some(9));
        assert!(decoded.body.setup_erase);

        let mut log = Command::request(MessageType::GetLog);
        log.body.log_type = "utilization".to_string();
        let decoded = Command::decode(&log.encode()).unwrap();
        assert_eq!(decoded.body.log_type, "utilization");
    }

    #[test]
    fn malformed_command_rejected() {
        assert!(Command::decode(b"not a command").is_err());
        assert!(Command::decode(&[]).is_err());
    }

    #[test]
    fn envelope_authentication() {
        let cmd = sample_command();
        let env = Envelope::seal(1, b"secret", &cmd);
        let opened = env.open(b"secret").unwrap();
        assert_eq!(opened, cmd);
        assert_eq!(env.open(b"wrong"), Err(KineticError::AuthenticationFailed));
    }

    #[test]
    fn cached_key_envelopes_match_secret_envelopes() {
        // The session layer seals and opens through a cached HmacKey; the
        // wire format must stay byte-identical to the from-secret path.
        let cmd = sample_command();
        let key = HmacKey::new(b"secret");
        let via_secret = Envelope::seal(1, b"secret", &cmd);
        let via_key = Envelope::seal_with(1, &key, &cmd);
        assert_eq!(via_key, via_secret);
        assert_eq!(via_key.encode(), via_secret.encode());
        assert_eq!(via_secret.open_with(&key).unwrap(), cmd);
        assert_eq!(via_key.open(b"secret").unwrap(), cmd);
        assert_eq!(
            via_key.open_with(&HmacKey::new(b"wrong")),
            Err(KineticError::AuthenticationFailed)
        );
    }

    #[test]
    fn envelope_tamper_detected() {
        let cmd = sample_command();
        let mut env = Envelope::seal(1, b"secret", &cmd);
        env.command_bytes[0] ^= 0x1;
        assert_eq!(env.open(b"secret"), Err(KineticError::AuthenticationFailed));
    }

    #[test]
    fn empty_value_and_versions_round_trip_as_present() {
        // A zero-length payload (or version field) must stay a zero-length
        // payload across encode/decode, not silently become "absent": the
        // fields are emitted unconditionally.
        let mut cmd = Command::request(MessageType::Put);
        cmd.body.key = b"zero/byte".to_vec();
        cmd.body.value = Payload::new();
        cmd.body.db_version = Vec::new();
        cmd.body.new_version = Vec::new();
        let encoded = cmd.encode();
        let decoded = Command::decode(&encoded).unwrap();
        assert_eq!(decoded, cmd);
        assert!(decoded.body.value.is_empty());
        // The body message really carries the three fields explicitly.
        let fields = FieldReader::new(&encoded).collect_fields().unwrap();
        let body = fields.iter().find(|f| f.number == 2).unwrap();
        let body_fields: Vec<u32> = FieldReader::new(body.data)
            .collect_fields()
            .unwrap()
            .iter()
            .map(|f| f.number)
            .collect();
        for field in [2u32, 3, 4] {
            assert!(body_fields.contains(&field), "field {field} dropped");
        }
    }

    #[test]
    fn max_returned_zero_is_encoded_explicitly() {
        let mut cmd = Command::request(MessageType::GetKeyRange);
        cmd.body.range_start = b"a".to_vec();
        cmd.body.range_end = b"z".to_vec();
        cmd.body.max_returned = 0;
        let decoded = Command::decode(&cmd.encode()).unwrap();
        assert_eq!(decoded.body.max_returned, 0);
        assert_eq!(decoded, cmd);
    }

    fn command_shapes() -> Vec<Command> {
        let mut shapes = vec![sample_command(), Command::request(MessageType::Noop)];
        let mut zero = Command::request(MessageType::Put);
        zero.body.key = b"zero".to_vec();
        shapes.push(zero);
        let mut range = Command::request(MessageType::GetKeyRange);
        range.body.range_start = b"a/".to_vec();
        range.body.range_end = b"a/~".to_vec();
        range.body.max_returned = 0;
        shapes.push(range);
        let mut security = Command::request(MessageType::Security);
        security.body.security_accounts = vec![AccountSpec {
            identity: -3,
            secret: b"s".to_vec(),
            permissions: 0x7,
        }];
        shapes.push(security);
        let mut setup = Command::request(MessageType::Setup);
        setup.body.setup_new_cluster_version = Some(11);
        setup.body.setup_erase = true;
        shapes.push(setup);
        let mut resp = Command::response_to(&sample_command(), StatusCode::NotFound, "missing");
        resp.body.value = b"payload".into();
        shapes.push(resp);
        let mut batch = Command::request(MessageType::Batch);
        batch.connection_id = 9;
        batch.body.batch = [
            BatchOp::put_forced(b"o/k/1".to_vec(), vec![7u8; 300], b"pesos"),
            BatchOp::Put {
                key: b"m/k".to_vec(),
                value: Payload::new(),
                db_version: b"v1".to_vec(),
                new_version: Vec::new(),
                force: false,
            },
            BatchOp::delete_forced(b"o/k/0".to_vec()),
            BatchOp::Delete {
                key: Vec::new(),
                db_version: b"v3".to_vec(),
                force: false,
            },
        ]
        .into();
        shapes.push(batch.clone());
        // A batch may ride next to a body value; both stay borrowed.
        batch.body.value = b"body".into();
        batch.body.batch = batch.body.batch[..1].into();
        shapes.push(batch);
        shapes
    }

    #[test]
    fn vectored_encode_matches_legacy_encode() {
        for cmd in command_shapes() {
            let legacy = cmd.encode();
            let vectored = cmd.encode_vectored();
            assert_eq!(vectored.to_bytes(), legacy, "{:?}", cmd.message_type);
            assert_eq!(vectored.encoded_len(), legacy.len());
            // Every non-empty payload travels as the buffer itself, not a
            // copy: the body value first, then each batch PUT's value.
            let batch_values = cmd.body.batch.iter().filter_map(|op| match op {
                BatchOp::Put { value, .. } => Some(value),
                BatchOp::Delete { .. } => None,
            });
            let expected: Vec<&Payload> = std::iter::once(&cmd.body.value)
                .chain(batch_values)
                .filter(|p| !p.is_empty())
                .collect();
            let shared: Vec<&Payload> = vectored.shared_payloads().collect();
            assert_eq!(shared.len(), expected.len());
            for (got, want) in shared.iter().zip(&expected) {
                assert!(Arc::ptr_eq(got.as_arc(), want.as_arc()));
            }
        }
    }

    #[test]
    fn batch_command_round_trip() {
        for cmd in command_shapes()
            .into_iter()
            .filter(|c| c.message_type == MessageType::Batch)
        {
            let decoded = Command::decode(&cmd.encode()).unwrap();
            assert_eq!(decoded, cmd);
        }
        // An unknown sub-operation kind is malformed, not silently skipped.
        let mut bogus = FieldWriter::new();
        bogus.uint64(1, 9).bytes(2, b"k");
        assert!(BatchOp::decode(&bogus.finish()).is_err());
    }

    #[test]
    fn vectored_envelope_matches_legacy_envelope() {
        let key = HmacKey::new(b"secret");
        for cmd in command_shapes() {
            let legacy = Envelope::seal_with(1, &key, &cmd);
            let vectored = Envelope::seal_vectored(1, &key, cmd.clone());
            // Same tag, byte-identical materialized frame.
            assert_eq!(vectored.hmac()[..], legacy.hmac[..]);
            assert_eq!(vectored.encode(), legacy.encode());
            // The folded verification accepts the right key and rejects a
            // wrong one.
            assert!(vectored.verified_by(&key));
            assert!(!vectored.verified_by(&HmacKey::new(b"wrong")));
            // The carried command is the sealed command.
            assert_eq!(vectored.command(), &cmd);
            assert_eq!(vectored.into_command(), cmd);
        }
    }

    #[test]
    fn vectored_frame_decodes_through_the_legacy_path() {
        let key = HmacKey::new(b"secret");
        let cmd = sample_command();
        let frame = Envelope::seal_vectored(7, &key, cmd.clone()).encode();
        let envelope = Envelope::decode(&frame).unwrap();
        assert_eq!(envelope.identity, 7);
        assert_eq!(envelope.open_with(&key).unwrap(), cmd);
    }

    #[test]
    fn envelope_encoding_round_trip() {
        let cmd = sample_command();
        let env = Envelope::seal(7, b"s", &cmd);
        let decoded = Envelope::decode(&env.encode()).unwrap();
        assert_eq!(decoded, env);
        assert!(Envelope::decode(b"junk").is_err());
    }

    #[test]
    fn message_type_and_status_exhaustive() {
        for t in [
            MessageType::Put,
            MessageType::Get,
            MessageType::Delete,
            MessageType::GetKeyRange,
            MessageType::Noop,
            MessageType::Security,
            MessageType::Setup,
            MessageType::GetLog,
            MessageType::PeerToPeerPush,
            MessageType::Flush,
            MessageType::Response,
            MessageType::Batch,
        ] {
            assert_eq!(MessageType::from_u64(t.to_u64()).unwrap(), t);
        }
        assert!(MessageType::from_u64(99).is_err());
        for s in [
            StatusCode::Success,
            StatusCode::NotFound,
            StatusCode::VersionMismatch,
            StatusCode::NotAuthorized,
            StatusCode::HmacFailure,
            StatusCode::InvalidRequest,
            StatusCode::NotAttempted,
            StatusCode::NoSpace,
            StatusCode::InternalError,
        ] {
            assert_eq!(StatusCode::from_u64(s.to_u64()).unwrap(), s);
        }
        assert!(StatusCode::from_u64(99).is_err());
        assert!(StatusCode::Success.is_success());
        assert!(!StatusCode::NotFound.is_success());
    }
}
