//! A complete simulated Kinetic drive.
//!
//! A drive couples the key-value [`DriveEngine`], a timing
//! [`DriveBackend`], the security configuration (numeric identities with
//! shared HMAC secrets and permission masks — real Kinetic drives ship with
//! the well-known demo identity `1` / secret `asdfasdf` that Pesos removes
//! at bootstrap), a unique device certificate that lets the controller
//! detect whole-drive replacement, and the administrative operations
//! (`Security`, `Setup`, `GetLog`).
//!
//! A request reaches the drive in one of two frame forms — received bytes
//! ([`KineticDrive::handle_frame`]) or the in-process vectored envelope the
//! client library in [`crate::client`] exchanges
//! ([`KineticDrive::handle_envelope`]) — and both are served by one body:
//! online check, one fault draw, account lookup, the form's own tag check,
//! execution, reply. The forms differ only in how a frame is opened (the
//! private `Frame` trait) and in whether the sealed reply is materialized.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use pesos_crypto::hmac::HmacKey;
use pesos_crypto::{Certificate, CertificateBuilder, KeyPair};

use crate::backend::{BackendKind, DriveBackend, HddModel};
use crate::engine::{DriveEngine, EngineStats, StoredEntry};
use crate::error::KineticError;
use crate::fault::{ExchangeGate, FaultCounts, FaultDecision, FaultInjector, FaultPlan};
use crate::protocol::{
    AccountSpec, BatchOp, Command, Envelope, MessageType, ResponseStatus, StatusCode,
    VectoredEnvelope, MAX_BATCH_OPS,
};

/// Permission bits for drive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Permission {
    /// Read values.
    Read,
    /// Write values.
    Write,
    /// Delete values.
    Delete,
    /// Run range scans.
    Range,
    /// Run device setup (cluster version, erase).
    Setup,
    /// Change the security configuration.
    Security,
    /// Initiate peer-to-peer pushes.
    P2p,
    /// Read device logs and statistics.
    GetLog,
}

impl Permission {
    /// The bit used in permission masks.
    pub fn bit(self) -> u32 {
        match self {
            Permission::Read => 1 << 0,
            Permission::Write => 1 << 1,
            Permission::Delete => 1 << 2,
            Permission::Range => 1 << 3,
            Permission::Setup => 1 << 4,
            Permission::Security => 1 << 5,
            Permission::P2p => 1 << 6,
            Permission::GetLog => 1 << 7,
        }
    }

    /// A mask granting every permission.
    pub fn all() -> u32 {
        0xff
    }

    /// A mask granting only data-path permissions (read/write/delete/range).
    pub fn data_only() -> u32 {
        Permission::Read.bit()
            | Permission::Write.bit()
            | Permission::Delete.bit()
            | Permission::Range.bit()
    }
}

/// An access-control account on the drive.
///
/// The HMAC key schedule for the account secret is run once at construction
/// and cached, so the two MACs the drive computes per exchange (request
/// verify, response seal) clone a midstate instead of redoing the schedule.
/// All fields are private so the secret and its cached key schedule cannot
/// drift apart: changing credentials means building a new `Account`. The
/// drive holds and hands out accounts behind an `Arc`, so serving an
/// exchange copies neither the secret nor the midstates.
pub struct Account {
    /// Numeric identity presented in envelopes.
    identity: i64,
    /// Shared HMAC secret.
    secret: Vec<u8>,
    /// Permission mask ([`Permission::bit`] values OR-ed together).
    permissions: u32,
    /// Precomputed HMAC key schedule for `secret`.
    mac_key: HmacKey,
}

impl Account {
    /// Creates an account, running the HMAC key schedule for `secret` once.
    pub fn new(identity: i64, secret: Vec<u8>, permissions: u32) -> Self {
        let mac_key = HmacKey::new(&secret);
        Account {
            identity,
            secret,
            permissions,
            mac_key,
        }
    }

    /// The numeric identity presented in envelopes.
    pub fn identity(&self) -> i64 {
        self.identity
    }

    /// The shared HMAC secret.
    pub fn secret(&self) -> &[u8] {
        &self.secret
    }

    /// The permission mask.
    pub fn permissions(&self) -> u32 {
        self.permissions
    }

    /// True if the account holds `permission`.
    pub fn allows(&self, permission: Permission) -> bool {
        self.permissions & permission.bit() != 0
    }

    /// The cached HMAC key schedule for this account's secret.
    pub fn mac_key(&self) -> &HmacKey {
        &self.mac_key
    }
}

impl std::fmt::Debug for Account {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Account")
            .field("identity", &self.identity)
            .field("secret", &"<redacted>")
            .field("permissions", &self.permissions)
            .finish()
    }
}

impl PartialEq for Account {
    fn eq(&self, other: &Self) -> bool {
        self.identity == other.identity
            && self.secret == other.secret
            && self.permissions == other.permissions
    }
}

impl Eq for Account {}

/// The security configuration of a drive.
#[derive(Debug, Clone, Default)]
pub struct AccessControl {
    accounts: Vec<Arc<Account>>,
}

impl AccessControl {
    /// The factory configuration: the well-known demo identity with full
    /// permissions, exactly what Pesos must remove at bootstrap.
    pub fn factory_default() -> Self {
        AccessControl {
            accounts: vec![Arc::new(Account::new(
                1,
                b"asdfasdf".to_vec(),
                Permission::all(),
            ))],
        }
    }

    /// Replaces all accounts.
    pub fn replace(&mut self, accounts: Vec<Account>) {
        self.accounts = accounts.into_iter().map(Arc::new).collect();
    }

    /// Looks up an account by identity.
    pub fn account(&self, identity: i64) -> Option<Arc<Account>> {
        self.accounts
            .iter()
            .find(|a| a.identity == identity)
            .cloned()
    }

    /// Number of configured accounts.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// True if no accounts are configured (drive is unreachable).
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }
}

/// Static configuration of a drive.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// Drive identifier (serial number), e.g. `"kd-01"`.
    pub id: String,
    /// Advertised capacity in bytes.
    pub capacity_bytes: u64,
    /// Timing backend.
    pub backend: BackendKind,
    /// Custom HDD model (only used when `backend` is [`BackendKind::Hdd`]).
    pub hdd_model: Option<HddModel>,
    /// Initial cluster version.
    pub cluster_version: u64,
}

impl DriveConfig {
    /// Configuration for an in-memory simulator drive (the paper's "Sim").
    pub fn simulator(id: impl Into<String>) -> Self {
        DriveConfig {
            id: id.into(),
            capacity_bytes: 4 * 1024 * 1024 * 1024, // Plenty for benchmarks.
            backend: BackendKind::Memory,
            hdd_model: None,
            cluster_version: 0,
        }
    }

    /// Configuration for an HDD-modelled drive (the paper's "Disk").
    pub fn hdd(id: impl Into<String>) -> Self {
        DriveConfig {
            id: id.into(),
            capacity_bytes: 4 * 1024 * 1024 * 1024 * 1024, // 4 TB.
            backend: BackendKind::Hdd,
            hdd_model: None,
            cluster_version: 0,
        }
    }
}

/// Device information returned by `GetLog`.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveInfo {
    /// Drive identifier.
    pub id: String,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes in use.
    pub used_bytes: u64,
    /// Fraction of capacity in use.
    pub utilization: f64,
    /// Engine operation counters.
    pub stats: EngineStats,
    /// Current cluster version.
    pub cluster_version: u64,
    /// Number of configured accounts.
    pub accounts: usize,
}

/// The HMAC key for the empty secret: replies the drive produces before it
/// could identify the caller (offline, dropped, malformed, unknown identity)
/// are sealed under it, and the client accepts it for exactly those. One
/// key schedule per process, shared by both sides.
pub(crate) fn empty_secret_key() -> &'static HmacKey {
    static KEY: OnceLock<HmacKey> = OnceLock::new();
    KEY.get_or_init(|| HmacKey::new(&[]))
}

/// A request frame in either of its two forms, as far as serving it goes:
/// who claims to have sent it, and the command once its tag checks out.
trait Frame {
    fn identity(&self) -> i64;

    /// Verifies the frame tag under the claimed account's key schedule and
    /// yields the command.
    fn open(&self, key: &HmacKey) -> Result<Cow<'_, Command>, KineticError>;
}

/// In process the chunks and the inner digest travel in one immutable
/// structure, so the folded check — one compression under the drive's own
/// key schedule — suffices and the command is borrowed, payload and all
/// (protocol module docs).
impl Frame for &VectoredEnvelope {
    fn identity(&self) -> i64 {
        VectoredEnvelope::identity(self)
    }

    fn open(&self, key: &HmacKey) -> Result<Cow<'_, Command>, KineticError> {
        if self.verified_by(key) {
            Ok(Cow::Borrowed(self.command()))
        } else {
            Err(KineticError::AuthenticationFailed)
        }
    }
}

/// Received bytes crossed the serialized trust boundary: the full two-pass
/// HMAC over the command bytes, then the decode.
impl Frame for Envelope {
    fn identity(&self) -> i64 {
        self.identity
    }

    fn open(&self, key: &HmacKey) -> Result<Cow<'_, Command>, KineticError> {
        self.open_with(key).map(Cow::Owned)
    }
}

/// A best-effort error reply: sealed under the caller's key schedule if the
/// drive got as far as knowing it, under [`empty_secret_key`] otherwise.
fn refusal(account: Option<&Account>, err: KineticError) -> VectoredEnvelope {
    let mut command = Command::request(MessageType::Response);
    command.status = ResponseStatus {
        code: err.status_code(),
        message: err.to_string(),
    };
    let key = account.map_or(empty_secret_key(), Account::mac_key);
    Envelope::seal_vectored(0, key, command)
}

/// A simulated Kinetic drive.
pub struct KineticDrive {
    config: DriveConfig,
    engine: Mutex<DriveEngine>,
    backend: DriveBackend,
    security: RwLock<AccessControl>,
    cluster_version: AtomicU64,
    device_keys: KeyPair,
    device_certificate: Certificate,
    /// Simulated availability flag (failure injection).
    online: AtomicBool,
    /// Optional deterministic fault source (see [`crate::fault`]). This
    /// mutex is what serialises the injector's generator and counters.
    fault: Mutex<Option<FaultInjector>>,
}

impl KineticDrive {
    /// Creates a drive in its factory state.
    pub fn new(config: DriveConfig) -> Self {
        let backend = match config.backend {
            BackendKind::Memory => DriveBackend::memory(),
            BackendKind::Hdd => match config.hdd_model {
                Some(model) => DriveBackend::hdd_with(model),
                None => DriveBackend::hdd(),
            },
        };
        let device_keys = KeyPair::from_seed(format!("kinetic-device-{}", config.id).as_bytes());
        let device_certificate =
            CertificateBuilder::new(format!("drive:{}", config.id), device_keys.public())
                .claim("model", vec!["ST4000NK0001".to_string()])
                .claim("serial", vec![config.id.clone()])
                .issue_self_signed(&device_keys);
        KineticDrive {
            engine: Mutex::with_rank(
                parking_lot::lock_order::DRIVE_ENGINE,
                DriveEngine::new(config.capacity_bytes),
            ),
            backend,
            security: RwLock::with_rank(
                parking_lot::lock_order::DRIVE_SECURITY,
                AccessControl::factory_default(),
            ),
            cluster_version: AtomicU64::new(config.cluster_version),
            device_keys,
            device_certificate,
            config,
            online: AtomicBool::new(true),
            fault: Mutex::with_rank(parking_lot::lock_order::DRIVE_FAULT, None),
        }
    }

    /// The drive identifier.
    pub fn id(&self) -> &str {
        &self.config.id
    }

    /// The unique device certificate (used by the controller to detect
    /// whole-drive replacement between restarts).
    pub fn device_certificate(&self) -> &Certificate {
        &self.device_certificate
    }

    /// The device signing keys (used to answer attestation challenges).
    pub fn device_keys(&self) -> &KeyPair {
        &self.device_keys
    }

    /// Simulates unplugging the drive; subsequent requests fail.
    pub fn set_online(&self, online: bool) {
        self.online.store(online, Ordering::SeqCst);
    }

    /// True if the drive is reachable.
    pub fn is_online(&self) -> bool {
        self.online.load(Ordering::SeqCst)
    }

    /// Attaches a deterministic fault plan; subsequent requests may be
    /// dropped, torn, or delayed according to the plan's seeded generator.
    pub fn inject_faults(&self, plan: FaultPlan) {
        *self.fault.lock() = Some(FaultInjector::new(plan));
    }

    /// Holds every later exchange at a new, closed gate, after its fault
    /// draw and before it runs, until the returned gate opens (`fault`
    /// module docs). A later [`KineticDrive::inject_faults`] or
    /// [`KineticDrive::clear_faults`] detaches it.
    pub fn hold_exchanges(&self) -> Arc<ExchangeGate> {
        let gate = Arc::new(ExchangeGate::default());
        self.fault
            .lock()
            .get_or_insert_with(|| FaultInjector::new(FaultPlan::errors(0, 0.0)))
            .hold(Arc::clone(&gate));
        gate
    }

    /// Removes any active fault plan.
    pub fn clear_faults(&self) {
        *self.fault.lock() = None;
    }

    /// Counters for the faults injected so far (zero when no plan is set).
    pub fn fault_counts(&self) -> FaultCounts {
        self.fault
            .lock()
            .as_ref()
            .map(|i| i.counts())
            .unwrap_or_default()
    }

    /// The one fault draw of an exchange. The decision is drawn and counted
    /// under the injector's lock, in arrival order; the plan's latency is
    /// slept after the lock is released, so a slow drive delays each
    /// exchange by `latency` instead of queueing them behind one sleeper;
    /// an attached gate is waited at after it.
    fn fault_decision(&self) -> FaultDecision {
        let (decision, latency, gate) = match self.fault.lock().as_mut() {
            Some(injector) => (injector.decide(), injector.plan().latency, injector.gate()),
            None => return FaultDecision::Pass,
        };
        if let Some(latency) = latency {
            std::thread::sleep(latency);
        }
        if let Some(gate) = gate {
            gate.pass();
        }
        decision
    }

    /// Returns device information (the `GetLog` payload).
    pub fn info(&self) -> DriveInfo {
        // Read the security table before locking the engine: guards
        // created inside one struct literal all live to the end of the
        // statement, and the drive-internal lock order is engine →
        // security.
        let accounts = self.security.read().len();
        let engine = self.engine.lock();
        DriveInfo {
            id: self.config.id.clone(),
            capacity_bytes: engine.capacity_bytes(),
            used_bytes: engine.used_bytes(),
            utilization: engine.utilization(),
            stats: engine.stats(),
            cluster_version: self.cluster_version.load(Ordering::SeqCst),
            accounts,
        }
    }

    /// Processes one authenticated protocol frame received as bytes and
    /// returns the encoded, authenticated response frame. This is the
    /// serialized trust boundary: the input is decoded and its tag checked
    /// with the full two-pass HMAC before anything runs.
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        self.serve(Envelope::decode(frame)).encode()
    }

    /// Processes one authenticated vectored frame — the in-process fast
    /// path of [`KineticDrive::handle_frame`].
    ///
    /// No frame bytes are materialized on either side: the request's
    /// payload chunk is the controller's shared buffer (the engine stores
    /// that same buffer on a PUT, and a GET response carries the engine's
    /// stored buffer back), and the frame tag is checked with the folded
    /// outer-transform verification ([`VectoredEnvelope::verified_by`] —
    /// one compression under this drive's own cached key schedule). A
    /// wrong-secret sealer still fails authentication exactly like on the
    /// bytes path; see the protocol module docs for why the full re-hash is
    /// unnecessary inside one process.
    pub fn handle_envelope(&self, envelope: &VectoredEnvelope) -> VectoredEnvelope {
        self.serve(Ok(envelope))
    }

    /// Serves one exchange, whichever form the request arrived in. A frame
    /// that failed to decode is reported where decoding sits in the order
    /// of events: after the online check and the fault draw, so every
    /// exchange that reaches an online drive consumes exactly one draw.
    fn serve<F: Frame>(&self, frame: Result<F, KineticError>) -> VectoredEnvelope {
        let id = &self.config.id;
        let unavailable = KineticError::DriveUnavailable;
        if !self.is_online() {
            return refusal(None, unavailable(format!("drive {id} offline")));
        }
        let decision = self.fault_decision();
        if decision == FaultDecision::DropRequest {
            let what = format!("injected fault: drive {id} dropped the request");
            return refusal(None, unavailable(what));
        }
        let frame = match frame {
            Ok(frame) => frame,
            Err(err) => return refusal(None, err),
        };
        let identity = frame.identity();
        let Some(account) = self.security.read().account(identity) else {
            let err = KineticError::NotAuthorized(format!("unknown identity {identity}"));
            return refusal(None, err);
        };
        let command = match frame.open(account.mac_key()) {
            Ok(command) => command,
            Err(err) => return refusal(Some(&account), err),
        };
        let response = self.execute(&account, &command);
        if decision == FaultDecision::TearReply {
            // The operation ran; the caller is told it did not. Recovery
            // code must treat this exactly like a dropped request.
            let what = format!("injected fault: drive {id} tore the reply");
            return refusal(Some(&account), unavailable(what));
        }
        Envelope::seal_vectored(identity, account.mac_key(), response)
    }

    /// Executes an already authenticated command for `account`.
    fn execute(&self, account: &Account, command: &Command) -> Command {
        // Cluster version must match for data operations (admin Setup may
        // change it).
        let current_cluster = self.cluster_version.load(Ordering::SeqCst);
        if command.cluster_version != current_cluster
            && command.message_type != MessageType::Setup
            && command.message_type != MessageType::GetLog
        {
            return Command::response_to(
                command,
                StatusCode::InvalidRequest,
                format!(
                    "cluster version mismatch: drive at {current_cluster}, request at {}",
                    command.cluster_version
                ),
            );
        }

        match command.message_type {
            MessageType::Noop => Command::response_to(command, StatusCode::Success, ""),
            MessageType::Put => self.op_put(account, command),
            MessageType::Get => self.op_get(account, command),
            MessageType::Delete => self.op_delete(account, command),
            MessageType::Batch => self.op_batch(account, command),
            MessageType::GetKeyRange => self.op_range(account, command),
            MessageType::Security => self.op_security(account, command),
            MessageType::Setup => self.op_setup(account, command),
            MessageType::GetLog => self.op_getlog(account, command),
            MessageType::Flush => Command::response_to(command, StatusCode::Success, "flushed"),
            MessageType::PeerToPeerPush => Command::response_to(
                command,
                StatusCode::NotAttempted,
                "peer-to-peer push is not modelled",
            ),
            MessageType::Response => Command::response_to(
                command,
                StatusCode::InvalidRequest,
                "response message sent as request",
            ),
        }
    }

    fn deny(command: &Command, what: &str) -> Command {
        Command::response_to(
            command,
            StatusCode::NotAuthorized,
            format!("identity lacks {what} permission"),
        )
    }

    fn op_put(&self, account: &Account, command: &Command) -> Command {
        if !account.allows(Permission::Write) {
            return Self::deny(command, "write");
        }
        self.backend
            .charge_io(command.body.key.len() + command.body.value.len());
        let result = self.engine.lock().put(
            &command.body.key,
            command.body.value.clone(),
            &command.body.db_version,
            command.body.new_version.clone(),
            command.body.force,
        );
        match result {
            Ok(()) => Command::response_to(command, StatusCode::Success, ""),
            Err(e) => Command::response_to(command, e.status_code(), e.to_string()),
        }
    }

    fn op_get(&self, account: &Account, command: &Command) -> Command {
        if !account.allows(Permission::Read) {
            return Self::deny(command, "read");
        }
        let result = self.engine.lock().get(&command.body.key);
        match result {
            Ok(StoredEntry { value, version }) => {
                self.backend.charge_io(command.body.key.len() + value.len());
                let mut resp = Command::response_to(command, StatusCode::Success, "");
                resp.body.key = command.body.key.clone();
                resp.body.value = value;
                resp.body.db_version = version.to_vec();
                resp
            }
            Err(e) => {
                self.backend.charge_io(command.body.key.len());
                Command::response_to(command, e.status_code(), e.to_string())
            }
        }
    }

    fn op_delete(&self, account: &Account, command: &Command) -> Command {
        if !account.allows(Permission::Delete) {
            return Self::deny(command, "delete");
        }
        self.backend.charge_io(command.body.key.len());
        let result = self.engine.lock().delete(
            &command.body.key,
            &command.body.db_version,
            command.body.force,
        );
        match result {
            Ok(()) => Command::response_to(command, StatusCode::Success, ""),
            Err(e) => Command::response_to(command, e.status_code(), e.to_string()),
        }
    }

    /// An atomic batch: checked as a whole (shape, then the permission
    /// every sub-operation needs), charged as *one* media operation — one
    /// seek, rotation and controller overhead, transfer over the summed
    /// sub-operation bytes, which is how the drive's LevelDB commits a
    /// `WriteBatch` — and applied all-or-nothing under one engine lock.
    fn op_batch(&self, account: &Account, command: &Command) -> Command {
        let ops = &command.body.batch;
        if ops.is_empty() || ops.len() > MAX_BATCH_OPS {
            return Command::response_to(
                command,
                StatusCode::InvalidRequest,
                format!(
                    "batch carries {} sub-operations (allowed 1..={MAX_BATCH_OPS})",
                    ops.len()
                ),
            );
        }
        if ops.iter().any(BatchOp::is_put) && !account.allows(Permission::Write) {
            return Self::deny(command, "write");
        }
        if !ops.iter().all(BatchOp::is_put) && !account.allows(Permission::Delete) {
            return Self::deny(command, "delete");
        }
        self.backend
            .charge_io(ops.iter().map(BatchOp::io_bytes).sum());
        let result = self.engine.lock().batch(ops);
        match result {
            Ok(()) => Command::response_to(command, StatusCode::Success, ""),
            Err((index, e)) => Command::response_to(
                command,
                e.status_code(),
                format!("batch sub-operation {index}: {e}"),
            ),
        }
    }

    fn op_range(&self, account: &Account, command: &Command) -> Command {
        if !account.allows(Permission::Range) {
            return Self::deny(command, "range");
        }
        // `max_returned` is taken literally: zero means "return no keys".
        // The encoder carries the field explicitly even when zero, so a
        // zero limit can no longer decode as "absent" and silently become
        // a default page size.
        let max = command.body.max_returned as usize;
        let (start, end) = (&command.body.range_start, &command.body.range_end);
        if start > end {
            return Command::response_to(
                command,
                StatusCode::InvalidRequest,
                "key range starts after it ends",
            );
        }
        let keys = self.engine.lock().key_range(start, end, max);
        self.backend
            .charge_io(keys.iter().map(|k| k.len()).sum::<usize>());
        let mut resp = Command::response_to(command, StatusCode::Success, "");
        // Keys are returned length-prefixed in the value field (the real
        // protocol uses a repeated field; this keeps the codec small while
        // staying unambiguous for keys containing any byte, including the
        // newline a join-based encoding would corrupt).
        let mut payload = Vec::with_capacity(keys.iter().map(|k| k.len() + 4).sum());
        for key in &keys {
            payload.extend_from_slice(&(key.len() as u32).to_be_bytes());
            payload.extend_from_slice(key);
        }
        resp.body.value = payload.into();
        resp
    }

    fn op_security(&self, account: &Account, command: &Command) -> Command {
        if !account.allows(Permission::Security) {
            return Self::deny(command, "security");
        }
        if command.body.security_accounts.is_empty() {
            return Command::response_to(
                command,
                StatusCode::InvalidRequest,
                "security command must define at least one account",
            );
        }
        let accounts: Vec<Account> = command
            .body
            .security_accounts
            .iter()
            .map(|spec: &AccountSpec| {
                Account::new(spec.identity, spec.secret.clone(), spec.permissions)
            })
            .collect();
        self.security.write().replace(accounts);
        Command::response_to(command, StatusCode::Success, "security updated")
    }

    fn op_setup(&self, account: &Account, command: &Command) -> Command {
        if !account.allows(Permission::Setup) {
            return Self::deny(command, "setup");
        }
        if let Some(v) = command.body.setup_new_cluster_version {
            self.cluster_version.store(v, Ordering::SeqCst);
        }
        if command.body.setup_erase {
            self.engine.lock().erase();
        }
        Command::response_to(command, StatusCode::Success, "setup applied")
    }

    fn op_getlog(&self, account: &Account, command: &Command) -> Command {
        if !account.allows(Permission::GetLog) {
            return Self::deny(command, "getlog");
        }
        let info = self.info();
        let mut resp = Command::response_to(command, StatusCode::Success, "");
        resp.body.value = format!(
            "id={};capacity={};used={};utilization={:.6};keys={};cluster_version={}",
            info.id,
            info.capacity_bytes,
            info.used_bytes,
            info.utilization,
            info.stats.keys,
            info.cluster_version
        )
        .into_bytes()
        .into();
        resp
    }

    /// Direct engine access for tests and recovery tooling: reads a key
    /// without permission checks or backend charges.
    pub fn peek(&self, key: &[u8]) -> Option<StoredEntry> {
        self.engine.lock().get(key).ok()
    }

    /// Number of keys currently stored.
    pub fn key_count(&self) -> usize {
        self.engine.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive() -> KineticDrive {
        KineticDrive::new(DriveConfig::simulator("kd-test"))
    }

    /// A frame sealed under the factory-default account (identity 1).
    fn admin_envelope(command: &Command) -> Vec<u8> {
        Envelope::seal(1, b"asdfasdf", command).encode()
    }

    fn roundtrip(drive: &KineticDrive, command: &Command) -> Command {
        let frame = admin_envelope(command);
        let resp_frame = drive.handle_frame(&frame);
        let env = Envelope::decode(&resp_frame).unwrap();
        Command::decode(&env.command_bytes).unwrap()
    }

    #[test]
    fn factory_default_account_works() {
        let d = drive();
        let mut put = Command::request(MessageType::Put);
        put.body.key = b"k".to_vec();
        put.body.value = b"v".into();
        put.body.new_version = b"1".to_vec();
        let resp = roundtrip(&d, &put);
        assert_eq!(resp.status.code, StatusCode::Success);

        let mut get = Command::request(MessageType::Get);
        get.body.key = b"k".to_vec();
        let resp = roundtrip(&d, &get);
        assert_eq!(resp.status.code, StatusCode::Success);
        assert_eq!(resp.body.value, b"v");
        assert_eq!(resp.body.db_version, b"1");
    }

    #[test]
    fn unknown_identity_rejected() {
        let d = drive();
        let cmd = Command::request(MessageType::Noop);
        let frame = Envelope::seal(99, b"whatever", &cmd).encode();
        let resp_frame = d.handle_frame(&frame);
        let env = Envelope::decode(&resp_frame).unwrap();
        let resp = Command::decode(&env.command_bytes).unwrap();
        assert_eq!(resp.status.code, StatusCode::NotAuthorized);
    }

    #[test]
    fn bad_hmac_rejected() {
        let d = drive();
        let cmd = Command::request(MessageType::Noop);
        let frame = Envelope::seal(1, b"wrong-secret", &cmd).encode();
        let resp_frame = d.handle_frame(&frame);
        let env = Envelope::decode(&resp_frame).unwrap();
        let resp = Command::decode(&env.command_bytes).unwrap();
        assert_eq!(resp.status.code, StatusCode::HmacFailure);
    }

    #[test]
    fn security_takeover_locks_out_old_identity() {
        let d = drive();
        // Replace all accounts with a single Pesos admin identity.
        let mut sec = Command::request(MessageType::Security);
        sec.body.security_accounts = vec![AccountSpec {
            identity: 42,
            secret: b"pesos-admin-secret".to_vec(),
            permissions: Permission::all(),
        }];
        let resp = roundtrip(&d, &sec);
        assert_eq!(resp.status.code, StatusCode::Success);

        // The factory identity no longer works.
        let noop = Command::request(MessageType::Noop);
        let frame = Envelope::seal(1, b"asdfasdf", &noop).encode();
        let env = Envelope::decode(&d.handle_frame(&frame)).unwrap();
        let resp = Command::decode(&env.command_bytes).unwrap();
        assert_eq!(resp.status.code, StatusCode::NotAuthorized);

        // The new identity does.
        let frame = Envelope::seal(42, b"pesos-admin-secret", &noop).encode();
        let env = Envelope::decode(&d.handle_frame(&frame)).unwrap();
        let resp = Command::decode(&env.command_bytes).unwrap();
        assert_eq!(resp.status.code, StatusCode::Success);
    }

    #[test]
    fn permissions_enforced() {
        let d = drive();
        // Install a read-only identity.
        let mut sec = Command::request(MessageType::Security);
        sec.body.security_accounts = vec![
            AccountSpec {
                identity: 1,
                secret: b"asdfasdf".to_vec(),
                permissions: Permission::all(),
            },
            AccountSpec {
                identity: 2,
                secret: b"reader".to_vec(),
                permissions: Permission::Read.bit(),
            },
        ];
        assert_eq!(roundtrip(&d, &sec).status.code, StatusCode::Success);

        let mut put = Command::request(MessageType::Put);
        put.body.key = b"k".to_vec();
        put.body.value = b"v".into();
        put.body.new_version = b"1".to_vec();
        let frame = Envelope::seal(2, b"reader", &put).encode();
        let env = Envelope::decode(&d.handle_frame(&frame)).unwrap();
        let resp = Command::decode(&env.command_bytes).unwrap();
        assert_eq!(resp.status.code, StatusCode::NotAuthorized);
    }

    #[test]
    fn a_reversed_key_range_is_an_invalid_request() {
        let d = drive();
        let mut put = Command::request(MessageType::Put);
        put.body.key = b"m".to_vec();
        put.body.value = b"v".into();
        put.body.new_version = b"1".to_vec();
        assert_eq!(roundtrip(&d, &put).status.code, StatusCode::Success);

        let mut range = Command::request(MessageType::GetKeyRange);
        range.body.range_start = b"z".to_vec();
        range.body.range_end = b"a".to_vec();
        range.body.max_returned = 10;
        assert_eq!(
            roundtrip(&d, &range).status.code,
            StatusCode::InvalidRequest
        );
        // The drive serves on: an ordered range over the same keys lists them.
        std::mem::swap(&mut range.body.range_start, &mut range.body.range_end);
        let resp = roundtrip(&d, &range);
        assert_eq!(resp.status.code, StatusCode::Success);
        assert_eq!(resp.body.value, b"\0\0\0\x01m");
    }

    #[test]
    fn cluster_version_mismatch_rejected() {
        let d = drive();
        // Raise the cluster version via setup.
        let mut setup = Command::request(MessageType::Setup);
        setup.body.setup_new_cluster_version = Some(5);
        assert_eq!(roundtrip(&d, &setup).status.code, StatusCode::Success);

        // A data request still at version 0 is rejected.
        let mut get = Command::request(MessageType::Get);
        get.body.key = b"k".to_vec();
        let resp = roundtrip(&d, &get);
        assert_eq!(resp.status.code, StatusCode::InvalidRequest);

        // With the right version it reaches the engine (NotFound).
        let mut get = Command::request(MessageType::Get);
        get.cluster_version = 5;
        get.body.key = b"k".to_vec();
        let resp = roundtrip(&d, &get);
        assert_eq!(resp.status.code, StatusCode::NotFound);
    }

    #[test]
    fn setup_erase_clears_data() {
        let d = drive();
        let mut put = Command::request(MessageType::Put);
        put.body.key = b"k".to_vec();
        put.body.value = b"v".into();
        put.body.new_version = b"1".to_vec();
        roundtrip(&d, &put);
        assert_eq!(d.key_count(), 1);

        let mut setup = Command::request(MessageType::Setup);
        setup.body.setup_erase = true;
        assert_eq!(roundtrip(&d, &setup).status.code, StatusCode::Success);
        assert_eq!(d.key_count(), 0);
    }

    #[test]
    fn getlog_reports_utilization() {
        let d = drive();
        let mut log = Command::request(MessageType::GetLog);
        log.body.log_type = "utilization".to_string();
        let resp = roundtrip(&d, &log);
        assert_eq!(resp.status.code, StatusCode::Success);
        let text = String::from_utf8(resp.body.value.to_vec()).unwrap();
        assert!(text.contains("id=kd-test"));
        assert!(text.contains("cluster_version=0"));
    }

    #[test]
    fn range_scan_over_frame_interface() {
        let d = drive();
        // Includes a key with an embedded newline: the length-prefixed
        // range encoding must return it intact (a join-based encoding
        // would split it in two).
        for k in ["a/1", "a/2", "a/x\ny", "b/1"] {
            let mut put = Command::request(MessageType::Put);
            put.body.key = k.as_bytes().to_vec();
            put.body.value = b"v".into();
            put.body.new_version = b"1".to_vec();
            roundtrip(&d, &put);
        }
        let mut range = Command::request(MessageType::GetKeyRange);
        range.body.range_start = b"a/".to_vec();
        range.body.range_end = b"a/~".to_vec();
        range.body.max_returned = 100;
        let resp = roundtrip(&d, &range);
        assert_eq!(resp.status.code, StatusCode::Success);
        let mut keys = Vec::new();
        let bytes = &resp.body.value;
        let mut offset = 0;
        while offset < bytes.len() {
            let mut len = [0u8; 4];
            len.copy_from_slice(&bytes[offset..offset + 4]);
            let len = u32::from_be_bytes(len) as usize;
            offset += 4;
            keys.push(String::from_utf8(bytes[offset..offset + len].to_vec()).unwrap());
            offset += len;
        }
        assert_eq!(keys, vec!["a/1", "a/2", "a/x\ny"]);
    }

    #[test]
    fn range_with_zero_max_returned_returns_no_keys() {
        // `max_returned == 0` is honoured literally, not replaced by a
        // default page size: the response carries zero keys. Regression
        // for the presence bug where the zero was dropped on encode and
        // the drive substituted a 200-key page.
        let d = drive();
        for k in ["r/1", "r/2", "r/3"] {
            let mut put = Command::request(MessageType::Put);
            put.body.key = k.as_bytes().to_vec();
            put.body.value = b"v".into();
            put.body.new_version = b"1".to_vec();
            assert_eq!(roundtrip(&d, &put).status.code, StatusCode::Success);
        }
        let mut range = Command::request(MessageType::GetKeyRange);
        range.body.range_start = b"r/".to_vec();
        range.body.range_end = b"r/~".to_vec();
        range.body.max_returned = 0;
        let resp = roundtrip(&d, &range);
        assert_eq!(resp.status.code, StatusCode::Success);
        assert!(
            resp.body.value.is_empty(),
            "max_returned=0 must return no keys, got {} payload bytes",
            resp.body.value.len()
        );
        // A non-zero limit still pages.
        range.body.max_returned = 2;
        let resp = roundtrip(&d, &range);
        assert_eq!(resp.status.code, StatusCode::Success);
        assert!(!resp.body.value.is_empty());
    }

    #[test]
    fn vectored_exchange_matches_frame_exchange() {
        // The vectored fast path and the serialized frame path must agree
        // on the response for the same request.
        let d = drive();
        let key = HmacKey::new(b"asdfasdf");

        let mut put = Command::request(MessageType::Put);
        put.body.key = b"vec".to_vec();
        put.body.value = b"payload".into();
        put.body.new_version = b"1".to_vec();
        let resp = d.handle_envelope(&Envelope::seal_vectored(1, &key, put));
        assert!(resp.verified_by(&key));
        assert_eq!(resp.command().status.code, StatusCode::Success);

        let mut get = Command::request(MessageType::Get);
        get.body.key = b"vec".to_vec();
        let via_env = d
            .handle_envelope(&Envelope::seal_vectored(1, &key, get.clone()))
            .into_command();
        let frame = Envelope::seal_with(1, &key, &get).encode();
        let via_frame = Envelope::decode(&d.handle_frame(&frame))
            .unwrap()
            .open_with(&key)
            .unwrap();
        assert_eq!(via_env, via_frame);
        assert_eq!(via_env.body.value, b"payload");
    }

    #[test]
    fn vectored_exchange_rejects_wrong_secret_and_unknown_identity() {
        let d = drive();
        let noop = Command::request(MessageType::Noop);

        let wrong = Envelope::seal_vectored(1, &HmacKey::new(b"wrong-secret"), noop.clone());
        let resp = d.handle_envelope(&wrong);
        assert_eq!(resp.command().status.code, StatusCode::HmacFailure);
        // The error response is sealed with the account's real key, as on
        // the bytes path.
        assert!(resp.verified_by(&HmacKey::new(b"asdfasdf")));

        let unknown = Envelope::seal_vectored(99, &HmacKey::new(b"whatever"), noop);
        let resp = d.handle_envelope(&unknown);
        assert_eq!(resp.command().status.code, StatusCode::NotAuthorized);
        assert!(resp.verified_by(&HmacKey::new(&[])));

        d.set_online(false);
        let resp = d.handle_envelope(&Envelope::seal_vectored(
            1,
            &HmacKey::new(b"asdfasdf"),
            Command::request(MessageType::Noop),
        ));
        assert_eq!(resp.command().status.code, StatusCode::NotAttempted);
    }

    #[test]
    fn vectored_put_stores_the_shared_payload_buffer() {
        // The one-copy story, pinned at the strongest point: the buffer the
        // engine ends up storing *is* the caller's payload allocation — the
        // whole wire path moved it by reference count only. (The simulated
        // enclave-boundary copy is charged by the controller's cost model,
        // not paid here.)
        use crate::protocol::Payload;
        let d = drive();
        let key = HmacKey::new(b"asdfasdf");
        let payload: Payload = vec![42u8; 1024].into();
        let mut put = Command::request(MessageType::Put);
        put.body.key = b"shared".to_vec();
        put.body.value = payload.clone();
        put.body.new_version = b"1".to_vec();
        let resp = d.handle_envelope(&Envelope::seal_vectored(1, &key, put));
        assert_eq!(resp.command().status.code, StatusCode::Success);
        let stored = d.peek(b"shared").unwrap();
        assert!(
            std::sync::Arc::ptr_eq(stored.value.as_arc(), payload.as_arc()),
            "engine stored a copy instead of the shared payload buffer"
        );

        // And the read path hands the stored buffer back, again by
        // reference.
        let mut get = Command::request(MessageType::Get);
        get.body.key = b"shared".to_vec();
        let got = d
            .handle_envelope(&Envelope::seal_vectored(1, &key, get))
            .into_command();
        assert!(std::sync::Arc::ptr_eq(
            got.body.value.as_arc(),
            payload.as_arc()
        ));
    }

    fn batch_command(ops: Vec<BatchOp>) -> Command {
        let mut cmd = Command::request(MessageType::Batch);
        cmd.body.batch = ops.into();
        cmd
    }

    #[test]
    fn batch_executes_on_frame_and_vectored_paths_alike() {
        // The serialized path (full two-pass HMAC over the frame bytes,
        // batch list included) and the vectored path run the same batch
        // handler and agree on the response.
        let key = HmacKey::new(b"asdfasdf");
        let ops = |tag: &str| {
            vec![
                BatchOp::put_forced(format!("o/{tag}").into_bytes(), b"data".to_vec(), b"1"),
                BatchOp::put_forced(format!("m/{tag}").into_bytes(), b"meta".to_vec(), b"1"),
                BatchOp::delete_forced(b"o/absent".to_vec()),
            ]
        };
        let d = drive();
        let via_frame = roundtrip(&d, &batch_command(ops("frame")));
        let via_env = d
            .handle_envelope(&Envelope::seal_vectored(1, &key, batch_command(ops("env"))))
            .into_command();
        assert_eq!(via_frame.status.code, StatusCode::Success);
        assert_eq!(via_env.status, via_frame.status);
        for tag in ["frame", "env"] {
            assert_eq!(
                d.peek(format!("o/{tag}").as_bytes()).unwrap().value,
                b"data"
            );
            assert_eq!(
                d.peek(format!("m/{tag}").as_bytes()).unwrap().value,
                b"meta"
            );
        }
        // A tampered batch frame fails authentication before anything runs.
        let mut frame = admin_envelope(&batch_command(ops("tampered")));
        let last = frame.len() - 1;
        frame[last] ^= 0x1;
        let env = Envelope::decode(&d.handle_frame(&frame)).unwrap();
        let resp = Command::decode(&env.command_bytes).unwrap();
        assert_eq!(resp.status.code, StatusCode::HmacFailure);
        assert!(d.peek(b"o/tampered").is_none());
        // Two batches served, each one media operation.
        let stats = d.info().stats;
        assert_eq!((stats.puts, stats.deletes, stats.batched_ops), (2, 0, 6));
    }

    #[test]
    fn batch_is_all_or_nothing_and_reports_the_failing_sub_op() {
        let d = drive();
        let resp = roundtrip(
            &d,
            &batch_command(vec![
                BatchOp::put_forced(b"first".to_vec(), b"v".to_vec(), b"1"),
                BatchOp::Put {
                    key: b"second".to_vec(),
                    value: b"v".into(),
                    db_version: b"not-there".to_vec(),
                    new_version: b"1".to_vec(),
                    force: false,
                },
            ]),
        );
        assert_eq!(resp.status.code, StatusCode::VersionMismatch);
        assert!(resp.status.message.contains("sub-operation 1"));
        assert_eq!(d.key_count(), 0, "sub-operation 0 must not have landed");
    }

    #[test]
    fn batch_shape_and_permissions_enforced() {
        let d = drive();
        // Empty and over-cap batches are typed InvalidRequest.
        let resp = roundtrip(&d, &batch_command(Vec::new()));
        assert_eq!(resp.status.code, StatusCode::InvalidRequest);
        let too_many = (0..=MAX_BATCH_OPS)
            .map(|i| BatchOp::put_forced(vec![i as u8], b"v".to_vec(), b"1"))
            .collect::<Vec<_>>();
        let resp = roundtrip(&d, &batch_command(too_many.clone()));
        assert_eq!(resp.status.code, StatusCode::InvalidRequest);
        assert_eq!(d.key_count(), 0);
        let resp = roundtrip(&d, &batch_command(too_many[..MAX_BATCH_OPS].to_vec()));
        assert_eq!(resp.status.code, StatusCode::Success);
        assert_eq!(d.key_count(), MAX_BATCH_OPS);

        // A write-only identity may batch PUTs, but one DELETE in the list
        // needs the Delete permission; a delete-only identity may not PUT.
        let mut sec = Command::request(MessageType::Security);
        sec.body.security_accounts = vec![
            AccountSpec {
                identity: 1,
                secret: b"asdfasdf".to_vec(),
                permissions: Permission::all(),
            },
            AccountSpec {
                identity: 2,
                secret: b"writer".to_vec(),
                permissions: Permission::Write.bit(),
            },
            AccountSpec {
                identity: 3,
                secret: b"deleter".to_vec(),
                permissions: Permission::Delete.bit(),
            },
        ];
        assert_eq!(roundtrip(&d, &sec).status.code, StatusCode::Success);
        let as_identity = |identity: i64, secret: &[u8], ops: Vec<BatchOp>| {
            let frame = Envelope::seal(identity, secret, &batch_command(ops)).encode();
            let env = Envelope::decode(&d.handle_frame(&frame)).unwrap();
            Command::decode(&env.command_bytes).unwrap().status.code
        };
        let put = BatchOp::put_forced(b"w".to_vec(), b"v".to_vec(), b"1");
        let delete = BatchOp::delete_forced(b"w".to_vec());
        assert_eq!(
            as_identity(2, b"writer", vec![put.clone()]),
            StatusCode::Success
        );
        assert_eq!(
            as_identity(2, b"writer", vec![put.clone(), delete.clone()]),
            StatusCode::NotAuthorized
        );
        assert_eq!(
            as_identity(3, b"deleter", vec![put, delete.clone()]),
            StatusCode::NotAuthorized
        );
        assert!(d.peek(b"w").is_some());
        assert_eq!(
            as_identity(3, b"deleter", vec![delete]),
            StatusCode::Success
        );
        assert!(d.peek(b"w").is_none());
    }

    #[test]
    fn hdd_charges_a_batch_as_one_media_operation() {
        let model = HddModel {
            avg_seek: std::time::Duration::from_millis(10),
            rpm: 7200,
            transfer_rate: 100 * 1024 * 1024,
            controller_overhead: std::time::Duration::ZERO,
        };
        let mut config = DriveConfig::hdd("kd-hdd");
        config.hdd_model = Some(model);
        let d = KineticDrive::new(config);
        let op = |i: u8| BatchOp::put_forced(vec![i], vec![i; 64], b"1");

        // Ten single-op batches pay ten seeks; one ten-op batch pays one.
        let start = std::time::Instant::now();
        for i in 0..10u8 {
            let resp = roundtrip(&d, &batch_command(vec![op(i)]));
            assert_eq!(resp.status.code, StatusCode::Success);
        }
        let separate = start.elapsed();
        let start = std::time::Instant::now();
        let resp = roundtrip(&d, &batch_command((10..20u8).map(op).collect()));
        let batched = start.elapsed();
        assert_eq!(resp.status.code, StatusCode::Success);
        assert!(batched >= model.service_time(10 * 65));
        assert!(
            batched * 2 < separate,
            "ten-op batch took {batched:?} against {separate:?} for ten one-op batches"
        );
        assert_eq!(d.info().stats.puts, 11);
    }

    #[test]
    fn a_refused_conditional_batch_applies_nothing_and_is_still_charged() {
        let model = HddModel {
            avg_seek: std::time::Duration::from_millis(10),
            rpm: 7200,
            transfer_rate: 100 * 1024 * 1024,
            controller_overhead: std::time::Duration::ZERO,
        };
        let mut config = DriveConfig::hdd("kd-hdd");
        config.hdd_model = Some(model);
        let d = KineticDrive::new(config);
        let create = |data: &[u8]| {
            batch_command(vec![
                BatchOp::put_if_absent(b"o/k/0".to_vec(), data.to_vec(), b"1"),
                BatchOp::put_if_absent(b"m/k".to_vec(), b"record".to_vec(), b"1"),
            ])
        };
        // Nothing under either key: the create lands.
        assert_eq!(
            roundtrip(&d, &create(b"first")).status.code,
            StatusCode::Success
        );
        let before = d.info();

        // The record exists now: the same create is refused as a whole, and
        // so is one whose data key is free but whose record key is not
        // (sub-operation 0 had already been applied when 1 was refused).
        let start = std::time::Instant::now();
        let resp = roundtrip(&d, &create(b"second"));
        assert!(start.elapsed() >= model.service_time(0));
        assert_eq!(resp.status.code, StatusCode::VersionMismatch);
        assert!(resp.status.message.contains("sub-operation 0"));
        let resp = roundtrip(
            &d,
            &batch_command(vec![
                BatchOp::put_if_absent(b"o/k/1".to_vec(), vec![0u8; 512], b"1"),
                BatchOp::put_if_absent(b"m/k".to_vec(), b"other".to_vec(), b"1"),
            ]),
        );
        assert_eq!(resp.status.code, StatusCode::VersionMismatch);
        assert!(resp.status.message.contains("sub-operation 1"));

        let after = d.info();
        assert_eq!(d.peek(b"o/k/0").unwrap().value, b"first");
        assert_eq!(d.peek(b"m/k").unwrap().value, b"record");
        assert!(d.peek(b"o/k/1").is_none());
        assert_eq!(after.used_bytes, before.used_bytes);
        assert_eq!(d.key_count(), 2);
        // Refused or not, each batch was one media operation.
        assert_eq!(after.stats.puts, before.stats.puts + 2);
    }

    #[test]
    fn vectored_batch_stores_the_shared_payload_buffers() {
        use crate::protocol::Payload;
        let d = drive();
        let key = HmacKey::new(b"asdfasdf");
        let data: Payload = vec![7u8; 4096].into();
        let meta: Payload = vec![9u8; 128].into();
        let batch = batch_command(vec![
            BatchOp::put_forced(b"o/k".to_vec(), data.clone(), b"1"),
            BatchOp::put_forced(b"m/k".to_vec(), meta.clone(), b"1"),
        ]);
        let resp = d.handle_envelope(&Envelope::seal_vectored(1, &key, batch));
        assert_eq!(resp.command().status.code, StatusCode::Success);
        for (stored_key, payload) in [(b"o/k", &data), (b"m/k", &meta)] {
            assert!(std::sync::Arc::ptr_eq(
                d.peek(stored_key).unwrap().value.as_arc(),
                payload.as_arc()
            ));
        }
    }

    #[test]
    fn offline_drive_unreachable() {
        let d = drive();
        d.set_online(false);
        let noop = Command::request(MessageType::Noop);
        let frame = Envelope::seal(1, b"asdfasdf", &noop).encode();
        let env = Envelope::decode(&d.handle_frame(&frame)).unwrap();
        let resp = Command::decode(&env.command_bytes).unwrap();
        assert_eq!(resp.status.code, StatusCode::NotAttempted);
        d.set_online(true);
        assert!(d.is_online());
    }

    #[test]
    fn injected_drop_fails_request_without_executing() {
        let d = drive();
        d.inject_faults(FaultPlan::errors(11, 1.0));
        let key = HmacKey::new(b"asdfasdf");
        let mut put = Command::request(MessageType::Put);
        put.body.key = b"k".to_vec();
        put.body.value = b"v".into();
        put.body.new_version = b"1".to_vec();
        let resp = d.handle_envelope(&Envelope::seal_vectored(1, &key, put));
        assert_eq!(resp.command().status.code, StatusCode::NotAttempted);
        d.clear_faults();
        assert!(d.peek(b"k").is_none(), "dropped request must not execute");
        assert_eq!(d.fault_counts(), FaultCounts::default());
    }

    #[test]
    fn injected_torn_reply_executes_then_reports_failure() {
        let d = drive();
        d.inject_faults(FaultPlan::torn_replies(11, 1.0));
        let key = HmacKey::new(b"asdfasdf");
        let mut put = Command::request(MessageType::Put);
        put.body.key = b"torn".to_vec();
        put.body.value = b"v".into();
        put.body.new_version = b"1".to_vec();
        let resp = d.handle_envelope(&Envelope::seal_vectored(1, &key, put));
        // The caller sees a failure sealed under its own account key...
        assert_eq!(resp.command().status.code, StatusCode::NotAttempted);
        assert!(resp.verified_by(&key));
        // ...but the operation ran.
        assert!(d.fault_counts().torn >= 1);
        d.clear_faults();
        assert_eq!(d.peek(b"torn").unwrap().value, b"v");
    }

    #[test]
    fn both_frame_forms_draw_the_same_faults_and_answer_alike() {
        // One serve path behind both entry points: the same seed and the
        // same command sequence give the same per-request outcome and the
        // same fault counts whether the requests arrive as bytes or as
        // vectored envelopes — one draw per exchange, in one place.
        let plan = FaultPlan {
            seed: 29,
            error_rate: 0.3,
            torn_reply_rate: 0.2,
            latency: None,
        };
        let admin = HmacKey::new(b"asdfasdf");
        let stranger = HmacKey::new(b"not-the-secret");
        let sequence: Vec<(i64, &HmacKey, Command)> = (0..96u8)
            .map(|i| {
                let key = vec![b'k', i % 8];
                let mut cmd = match i % 4 {
                    0 | 1 => {
                        let mut put = Command::request(MessageType::Put);
                        put.body.value = vec![i; 16].into();
                        put.body.new_version = vec![i];
                        put.body.force = true;
                        put
                    }
                    2 => Command::request(MessageType::Get),
                    _ => {
                        let mut delete = Command::request(MessageType::Delete);
                        delete.body.force = true;
                        delete
                    }
                };
                cmd.body.key = key;
                cmd.sequence = u64::from(i);
                // Unauthenticated and unknown callers consume a draw too.
                match i % 16 {
                    7 => (1, &stranger, cmd),
                    11 => (99, &admin, cmd),
                    _ => (1, &admin, cmd),
                }
            })
            .collect();

        let via_bytes = drive();
        via_bytes.inject_faults(plan);
        let bytes_outcomes: Vec<Command> = sequence
            .iter()
            .map(|(identity, key, cmd)| {
                let frame = Envelope::seal_with(*identity, key, cmd).encode();
                let reply = Envelope::decode(&via_bytes.handle_frame(&frame)).unwrap();
                Command::decode(&reply.command_bytes).unwrap()
            })
            .collect();
        let via_envelopes = drive();
        via_envelopes.inject_faults(plan);
        let envelope_outcomes: Vec<Command> = sequence
            .iter()
            .map(|(identity, key, cmd)| {
                via_envelopes
                    .handle_envelope(&Envelope::seal_vectored(*identity, key, cmd.clone()))
                    .into_command()
            })
            .collect();

        assert_eq!(bytes_outcomes, envelope_outcomes);
        let counts = via_bytes.fault_counts();
        assert_eq!(counts, via_envelopes.fault_counts());
        assert!(counts.dropped > 0 && counts.torn > 0, "{counts:?}");
        for k in 0..8u8 {
            assert_eq!(via_bytes.peek(&[b'k', k]), via_envelopes.peek(&[b'k', k]));
        }
    }

    #[test]
    fn device_certificate_is_stable_and_unique() {
        let a = KineticDrive::new(DriveConfig::simulator("kd-a"));
        let a2 = KineticDrive::new(DriveConfig::simulator("kd-a"));
        let b = KineticDrive::new(DriveConfig::simulator("kd-b"));
        assert_eq!(
            a.device_certificate().fingerprint(),
            a2.device_certificate().fingerprint()
        );
        assert_ne!(
            a.device_certificate().fingerprint(),
            b.device_certificate().fingerprint()
        );
        a.device_certificate().verify_signature().unwrap();
    }
}
