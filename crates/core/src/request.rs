//! Client-facing request and response wrappers.
//!
//! REST parameters travel as a [`RestRequest`]; policies that rely on
//! certified external facts (`certificateSays`) additionally need the
//! certificates the client presents with the request. [`ClientRequest`]
//! bundles the two, and [`ClientResponse`] is the REST response together
//! with the operation identifier bookkeeping the controller adds.
//!
//! The parameter validation a REST method needs lives here too, as
//! [`ClientRequest`] accessors; the one dispatcher that uses them, and
//! shapes the responses, is `pesos_cluster`'s.

use pesos_crypto::Certificate;
use pesos_policy::PolicyId;
use pesos_wire::{RestRequest, RestResponse};

use crate::error::PesosError;

/// A request as seen by the controller's request handler.
#[derive(Debug, Clone)]
pub struct ClientRequest {
    /// The REST parameters (method, key, value, policy, async flag, ...).
    pub rest: RestRequest,
    /// Certificates presented with the request for `certificateSays`.
    pub certificates: Vec<Certificate>,
}

impl ClientRequest {
    /// Wraps a REST request with no certificates.
    pub fn new(rest: RestRequest) -> Self {
        ClientRequest {
            rest,
            certificates: Vec::new(),
        }
    }

    /// Attaches a certificate.
    pub fn with_certificate(mut self, cert: Certificate) -> Self {
        self.certificates.push(cert);
        self
    }

    /// The transaction handle a transaction method must carry.
    pub fn tx_id(&self) -> Result<u64, PesosError> {
        self.rest
            .tx_id
            .ok_or(PesosError::BadRequest("missing tx id".into()))
    }

    /// The policy-id parameter, parsed, if the request carries one.
    pub fn policy_id(&self) -> Result<Option<PolicyId>, PesosError> {
        self.rest
            .policy_id
            .as_deref()
            .map(parse_policy_id)
            .transpose()
    }

    /// The policy id a method that cannot do without one must carry.
    pub fn required_policy_id(&self) -> Result<PolicyId, PesosError> {
        self.policy_id()?
            .ok_or(PesosError::BadRequest("missing policy id".into()))
    }

    /// The asynchronous-operation id `PollResult` addresses (its key).
    pub fn operation_id(&self) -> Result<u64, PesosError> {
        self.rest
            .key
            .parse()
            .map_err(|_| PesosError::BadRequest("operation id must be numeric".into()))
    }

    /// The policy text `PutPolicy` installs (its value).
    pub fn policy_source(&self) -> Result<&str, PesosError> {
        std::str::from_utf8(&self.rest.value)
            .map_err(|_| PesosError::BadRequest("policy text must be UTF-8".into()))
    }
}

impl From<RestRequest> for ClientRequest {
    fn from(rest: RestRequest) -> Self {
        ClientRequest::new(rest)
    }
}

/// The controller's response type (alias of the REST response).
pub type ClientResponse = RestResponse;

/// Parses the hex policy-id form used on the REST surface.
pub fn parse_policy_id(hex: &str) -> Result<PolicyId, PesosError> {
    PolicyId::from_hex(hex)
        .ok_or_else(|| PesosError::BadRequest(format!("invalid policy id {hex:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesos_crypto::{CertificateBuilder, KeyPair};

    #[test]
    fn construction() {
        let rest = RestRequest::put("k", b"v".to_vec());
        let req = ClientRequest::new(rest.clone());
        assert!(req.certificates.is_empty());
        let kp = KeyPair::from_seed(b"x");
        let cert = CertificateBuilder::new("c", kp.public()).issue_self_signed(&kp);
        let req = ClientRequest::from(rest).with_certificate(cert);
        assert_eq!(req.certificates.len(), 1);
    }
}
