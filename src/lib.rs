//! Umbrella crate for the Pesos reproduction.
//!
//! Re-exports the individual subsystem crates under one roof so that
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! * [`crypto`] — hashes, AEAD, signatures, certificates (simulation grade).
//! * [`wire`] — protobuf-style codec and the typed REST model.
//! * [`sgx`] — the SGX/Scone enclave simulator (attestation, async
//!   syscalls, EPC accounting, cost model).
//! * [`kinetic`] — the Kinetic drive substrate (protocol, drive engine,
//!   simulator and HDD backends, client library).
//! * [`policy`] — the declarative policy language (parser, compiler,
//!   interpreter, policy cache).
//! * [`core`] — the Pesos controller itself.
//! * [`ycsb`] — YCSB-style workloads and the measurement harness.
//!
//! `examples/quickstart.rs` is the shortest end-to-end tour; `ROADMAP.md`
//! holds the architecture notes.

pub use pesos_cluster as cluster;
pub use pesos_core as core;
pub use pesos_crypto as crypto;
pub use pesos_kinetic as kinetic;
pub use pesos_policy as policy;
pub use pesos_sgx as sgx;
pub use pesos_wire as wire;
pub use pesos_ycsb as ycsb;

pub use pesos_cluster::{ClusterConfig, ControllerCluster};
pub use pesos_core::{ControllerConfig, PesosController, PesosError};
pub use pesos_policy::{Operation, PolicyId};

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_compile() {
        let config = crate::ControllerConfig::native_simulator(1);
        assert_eq!(config.drive_count, 1);
    }
}
