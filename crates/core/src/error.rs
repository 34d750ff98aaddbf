//! Controller error type.

use std::fmt;

use pesos_kinetic::KineticError;
use pesos_policy::PolicyError;
use pesos_sgx::SgxError;
use pesos_wire::WireError;

/// Errors surfaced by the Pesos controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PesosError {
    /// The policy associated with the object denied the operation.
    PolicyDenied(String),
    /// The requested object does not exist.
    ObjectNotFound(String),
    /// The referenced policy does not exist.
    PolicyNotFound(String),
    /// The supplied version did not match (versioned update conflict).
    VersionConflict { expected: u64, got: u64 },
    /// A transaction failed or was aborted.
    TransactionAborted(String),
    /// The outcome of an operation is no longer (or not yet) retained;
    /// unlike [`PesosError::TransactionAborted`] this says nothing about
    /// whether the operation succeeded.
    ResultUnavailable(String),
    /// The request was malformed.
    BadRequest(String),
    /// The client session is unknown or expired.
    NoSession(String),
    /// A backend drive reported an error.
    Backend(String),
    /// Bootstrap or attestation failed.
    Bootstrap(String),
    /// The controller owning the request's range is (temporarily) down.
    /// Unlike [`PesosError::Backend`] this is retryable: the cluster layer
    /// re-resolves routing and retries with backoff, because a failover may
    /// promote a backup for the range at any moment.
    Unavailable(String),
    /// A topology change was refused because a pending migration must be
    /// settled (or has failed to settle) first.
    MigrationPending(String),
}

impl fmt::Display for PesosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PesosError::PolicyDenied(msg) => write!(f, "policy denied: {msg}"),
            PesosError::ObjectNotFound(key) => write!(f, "object not found: {key}"),
            PesosError::PolicyNotFound(id) => write!(f, "policy not found: {id}"),
            PesosError::VersionConflict { expected, got } => {
                write!(f, "version conflict: expected {expected}, got {got}")
            }
            PesosError::TransactionAborted(msg) => write!(f, "transaction aborted: {msg}"),
            PesosError::ResultUnavailable(msg) => write!(f, "result unavailable: {msg}"),
            PesosError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            PesosError::NoSession(msg) => write!(f, "no session: {msg}"),
            PesosError::Backend(msg) => write!(f, "backend error: {msg}"),
            PesosError::Bootstrap(msg) => write!(f, "bootstrap failed: {msg}"),
            PesosError::Unavailable(msg) => write!(f, "controller unavailable: {msg}"),
            PesosError::MigrationPending(msg) => write!(f, "migration pending: {msg}"),
        }
    }
}

impl PesosError {
    /// The REST status this error maps to on the wire.
    pub fn rest_status(&self) -> pesos_wire::RestStatus {
        use pesos_wire::RestStatus;
        match self {
            PesosError::PolicyDenied(_) => RestStatus::PolicyDenied,
            PesosError::ObjectNotFound(_)
            | PesosError::PolicyNotFound(_)
            | PesosError::ResultUnavailable(_) => RestStatus::NotFound,
            PesosError::VersionConflict { .. } | PesosError::TransactionAborted(_) => {
                RestStatus::Conflict
            }
            PesosError::BadRequest(_) | PesosError::NoSession(_) => RestStatus::BadRequest,
            PesosError::Backend(_) | PesosError::Bootstrap(_) | PesosError::Unavailable(_) => {
                RestStatus::BackendError
            }
            PesosError::MigrationPending(_) => RestStatus::Conflict,
        }
    }

    /// Builds the REST failure response for this error.
    pub fn rest_response(&self) -> pesos_wire::RestResponse {
        pesos_wire::RestResponse::failure(self.rest_status(), self.to_string())
    }
}

impl std::error::Error for PesosError {}

impl From<KineticError> for PesosError {
    fn from(e: KineticError) -> Self {
        match e {
            KineticError::NotFound => PesosError::ObjectNotFound("<backend key>".to_string()),
            other => PesosError::Backend(other.to_string()),
        }
    }
}

impl From<PolicyError> for PesosError {
    fn from(e: PolicyError) -> Self {
        PesosError::BadRequest(format!("policy error: {e}"))
    }
}

impl From<SgxError> for PesosError {
    fn from(e: SgxError) -> Self {
        PesosError::Bootstrap(e.to_string())
    }
}

impl From<WireError> for PesosError {
    fn from(e: WireError) -> Self {
        PesosError::BadRequest(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: PesosError = KineticError::NotFound.into();
        assert!(matches!(e, PesosError::ObjectNotFound(_)));
        let e: PesosError = KineticError::NoSpace.into();
        assert!(matches!(e, PesosError::Backend(_)));
        let e: PesosError = PolicyError::UnknownPredicate("x".into()).into();
        assert!(matches!(e, PesosError::BadRequest(_)));
        assert!(PesosError::VersionConflict {
            expected: 1,
            got: 2
        }
        .to_string()
        .contains("1"));
    }

    #[test]
    fn failover_variants_map_to_rest_statuses() {
        use pesos_wire::RestStatus;
        let e = PesosError::Unavailable("controller 2 failed".into());
        assert_eq!(e.rest_status(), RestStatus::BackendError);
        assert!(e.to_string().contains("unavailable"));
        let e = PesosError::MigrationPending("range [0,10) still draining".into());
        assert_eq!(e.rest_status(), RestStatus::Conflict);
        assert!(e.to_string().contains("migration pending"));
    }
}
