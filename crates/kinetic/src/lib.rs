//! Kinetic Open Storage substrate.
//!
//! Pesos persists objects on Seagate Kinetic drives: hard disks with an
//! on-board SoC and an Ethernet interface that speak a key-value protocol
//! (Google Protocol Buffers over a length-prefixed framing, every message
//! authenticated with an HMAC keyed by a per-identity secret). The
//! controller takes exclusive ownership of its drives at bootstrap by
//! replacing all accounts with a single administrative identity, then issues
//! `PUT`/`GET`/`DELETE` operations against them over mutually authenticated
//! channels.
//!
//! This crate rebuilds that stack:
//!
//! * [`protocol`] — the message model, its protobuf-style encoding, and
//!   the vectored frame representation ([`VectoredEnvelope`]): scatter-
//!   gather chunks around a borrowed payload, sealed with one streaming
//!   frame HMAC, so the in-process exchange moves object payloads without
//!   copying or re-hashing them (the module docs carry the wire-format and
//!   security argument), plus the atomic batch ([`BatchOp`]): an ordered
//!   PUT/DELETE list in one authenticated frame. The vectored encoder is
//!   the only one in a shipped build; the monolithic one it replaced
//!   (`Command::encode`, `BatchOp::encode`, `Envelope::{seal, seal_with,
//!   encode}`) exists under `cfg(test)` alone, as the oracle of the
//!   in-crate wire-equivalence properties. The byte *decode* path is
//!   shipped and public.
//! * [`engine`] — the key-value engine inside a drive (versioned entries,
//!   range scans, capacity accounting, all-or-nothing batches).
//! * [`backend`] — the timing model: an in-memory *simulator* backend
//!   (the paper's "Sim" configuration, mirroring the Java Kinetic
//!   simulator) and an *HDD* backend that charges seek/rotational/transfer
//!   latency and throttles to roughly 1 kIOP/s per spindle (the paper's
//!   "Disk" configuration).
//! * [`drive`] — a full drive: engine + backend + accounts/ACLs + device
//!   certificate + admin operations (security, setup/erase, getlog). One
//!   serve path answers a request in either frame form;
//!   [`KineticDrive::handle_frame`] is the serialized trust boundary
//!   (received bytes are decoded and fully re-hashed before anything
//!   runs), [`KineticDrive::handle_envelope`] the in-process exchange.
//! * [`client`] — the client library used by the controller: session setup,
//!   per-message HMAC authentication, synchronous operations (the SGX
//!   asyscall interface above it supplies the asynchrony).
//! * [`cluster`] — a named set of drives, as configured for one controller.
//! * [`fault`] — deterministic fault injection (dropped requests, torn
//!   replies, added latency) driven by a seeded generator, used by the
//!   failover and migration test suites.
//!
//! Unmodelled: drive-to-drive copy. A `PeerToPeerPush` is answered
//! `NotAttempted` and nothing moves data between drives except a
//! controller reading from one and writing to another.

pub mod backend;
pub mod client;
pub mod cluster;
pub mod drive;
pub mod engine;
pub mod error;
pub mod fault;
pub mod protocol;
mod wire_equivalence;

pub use backend::{BackendKind, DriveBackend, HddModel};
pub use client::{ClientConfig, KineticClient};
pub use cluster::DriveSet;
pub use drive::{AccessControl, Account, DriveConfig, KineticDrive, Permission};
pub use engine::{DriveEngine, EngineStats, StoredEntry};
pub use error::KineticError;
pub use fault::{ExchangeGate, FaultCounts, FaultDecision, FaultInjector, FaultPlan};
pub use protocol::{
    AccountSpec, BatchOp, Command, CommandBody, Envelope, MessageType, Payload, ResponseStatus,
    StatusCode, VectoredCommand, VectoredEnvelope, MAX_BATCH_OPS,
};
