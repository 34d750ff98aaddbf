//! SGX / Scone shielded-execution simulator.
//!
//! The Pesos controller runs inside an Intel SGX enclave using the Scone
//! framework: remote attestation gates secret provisioning, system calls are
//! submitted asynchronously through shared-memory queues to avoid enclave
//! exits, user-level threads are multiplexed onto enclave hardware threads,
//! and everything must fit into the ~96 MiB of usable Enclave Page Cache
//! (EPC) or pay a steep paging penalty.
//!
//! Real SGX hardware is not available in this reproduction, so this crate
//! simulates the *mechanism and the cost profile* rather than the hardware
//! protection:
//!
//! * [`enclave`] — enclave identity (measurement), EPC accounting and the
//!   paging cost model.
//! * [`cost`] — the execution cost model that charges enclave transitions,
//!   asynchronous system calls and EPC paging, and distinguishes the
//!   `Native` and `Sgx` execution modes compared throughout the paper's
//!   evaluation.
//! * [`asyscall`] — the FlexSC-style asynchronous system-call interface
//!   (slots + submission/return queues + untrusted service threads).
//! * [`scheduler`] — user-level task scheduling on a bounded number of
//!   enclave threads.
//! * [`attestation`] — enclave quotes, the attestation service and secret
//!   provisioning used during the Pesos bootstrap.
//!
//! Unmodelled: Scone's file shield and its in-enclave bitmap `mmap`
//! allocator. The controller keeps its state in Rust collections and seals
//! objects itself before they reach a drive, so nothing on the request path
//! crossed either.

pub mod asyscall;
pub mod attestation;
pub mod cost;
pub mod enclave;
pub mod error;
pub mod scheduler;

pub use asyscall::{AsyscallInterface, AsyscallStats, HostPool, PoolStats};
pub use attestation::{AttestationService, EnclaveQuote, ProvisionedSecrets};
pub use cost::{CostEvent, ExecutionMode, SgxCostModel};
pub use enclave::{Enclave, EnclaveConfig, EnclaveMeasurement, EpcStats};
pub use error::SgxError;
pub use scheduler::UserScheduler;
