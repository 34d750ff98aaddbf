//! Error type for the SGX simulator.

use std::fmt;

/// Errors produced by the enclave simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgxError {
    /// The requested allocation does not fit the enclave heap.
    OutOfEnclaveMemory { requested: usize, available: usize },
    /// Attestation failed (unknown measurement, bad signature, ...).
    AttestationFailed(String),
    /// The enclave was configured with invalid parameters.
    InvalidConfig(String),
    /// The asynchronous system-call interface was shut down.
    SyscallInterfaceClosed,
    /// The host could not start a system-call service thread.
    ServiceThreadSpawn(String),
    /// A sealed blob failed to unseal (wrong enclave identity or tampering).
    UnsealFailed,
}

impl fmt::Display for SgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgxError::OutOfEnclaveMemory {
                requested,
                available,
            } => write!(
                f,
                "out of enclave memory: requested {requested} bytes, {available} available"
            ),
            SgxError::AttestationFailed(msg) => write!(f, "attestation failed: {msg}"),
            SgxError::InvalidConfig(msg) => write!(f, "invalid enclave config: {msg}"),
            SgxError::SyscallInterfaceClosed => write!(f, "syscall interface closed"),
            SgxError::ServiceThreadSpawn(msg) => write!(f, "cannot start a service thread: {msg}"),
            SgxError::UnsealFailed => write!(f, "unseal failed"),
        }
    }
}

impl std::error::Error for SgxError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SgxError::OutOfEnclaveMemory {
            requested: 100,
            available: 50,
        };
        assert!(e.to_string().contains("100"));
        assert!(SgxError::UnsealFailed.to_string().contains("unseal"));
    }
}
