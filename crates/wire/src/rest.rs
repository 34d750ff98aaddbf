//! The Pesos REST request/response model.
//!
//! A Pesos POST request carries at most four parameters (paper §4.1): a
//! *method*, a *key* (part of the URL), a *value* and a *policy identifier*.
//! Requests may additionally be flagged asynchronous, in which case the
//! controller acknowledges immediately with an operation identifier that the
//! client can later poll with [`RestMethod::PollResult`].
//!
//! This module defines the typed request/response structures the REST
//! dispatcher (`ControllerCluster::handle`) takes and returns. Their HTTP
//! framing is unmodelled: no request path crossed it.

use std::fmt;

use crate::error::WireError;

/// The operations exposed by the Pesos REST API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestMethod {
    /// Store an object (optionally associating a policy).
    Put,
    /// Retrieve an object.
    Get,
    /// Delete an object.
    Delete,
    /// Update an existing object (distinguished from `Put` so version
    /// policies can treat creation specially).
    Update,
    /// Install a policy; the value carries the policy source text.
    PutPolicy,
    /// Retrieve a previously installed policy (for auditing).
    GetPolicy,
    /// Attach an existing policy to an existing object.
    AttachPolicy,
    /// Query the result of an asynchronous operation.
    PollResult,
    /// Begin a transaction.
    CreateTx,
    /// Add a read operation to a transaction.
    AddRead,
    /// Add a write operation to a transaction.
    AddWrite,
    /// Commit a transaction.
    CommitTx,
    /// Abort a transaction.
    AbortTx,
    /// Check the per-operation results of a committed transaction.
    CheckResults,
    /// Controller status / health.
    Status,
    /// Read the hierarchical telemetry tree; the key carries the stats
    /// path (and optional query), e.g. `partitions/3/replication/lag` or
    /// `groups/hot?top=16`; the dispatcher parses it.
    Stats,
}

impl RestMethod {
    /// The textual name used on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            RestMethod::Put => "put",
            RestMethod::Get => "get",
            RestMethod::Delete => "delete",
            RestMethod::Update => "update",
            RestMethod::PutPolicy => "putPolicy",
            RestMethod::GetPolicy => "getPolicy",
            RestMethod::AttachPolicy => "attachPolicy",
            RestMethod::PollResult => "pollResult",
            RestMethod::CreateTx => "createTx",
            RestMethod::AddRead => "addRead",
            RestMethod::AddWrite => "addWrite",
            RestMethod::CommitTx => "commitTx",
            RestMethod::AbortTx => "abortTx",
            RestMethod::CheckResults => "checkResults",
            RestMethod::Status => "status",
            RestMethod::Stats => "stats",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        match s {
            "put" => Ok(RestMethod::Put),
            "get" => Ok(RestMethod::Get),
            "delete" => Ok(RestMethod::Delete),
            "update" => Ok(RestMethod::Update),
            "putPolicy" => Ok(RestMethod::PutPolicy),
            "getPolicy" => Ok(RestMethod::GetPolicy),
            "attachPolicy" => Ok(RestMethod::AttachPolicy),
            "pollResult" => Ok(RestMethod::PollResult),
            "createTx" => Ok(RestMethod::CreateTx),
            "addRead" => Ok(RestMethod::AddRead),
            "addWrite" => Ok(RestMethod::AddWrite),
            "commitTx" => Ok(RestMethod::CommitTx),
            "abortTx" => Ok(RestMethod::AbortTx),
            "checkResults" => Ok(RestMethod::CheckResults),
            "status" => Ok(RestMethod::Status),
            "stats" => Ok(RestMethod::Stats),
            other => Err(WireError::InvalidParameter(format!(
                "unknown method {other:?}"
            ))),
        }
    }

    /// True for methods that may execute asynchronously (paper §4.1: put,
    /// update and delete; reads and session management are synchronous).
    pub fn supports_async(self) -> bool {
        matches!(
            self,
            RestMethod::Put | RestMethod::Update | RestMethod::Delete | RestMethod::CommitTx
        )
    }

    /// True for methods that mutate state. `Stats` counts as a read even
    /// though the `stats/reset` path restarts telemetry windows — windows
    /// are observability state, not stored data.
    pub fn is_write(self) -> bool {
        !matches!(
            self,
            RestMethod::Get
                | RestMethod::GetPolicy
                | RestMethod::PollResult
                | RestMethod::CheckResults
                | RestMethod::Status
                | RestMethod::Stats
        )
    }
}

impl fmt::Display for RestMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed Pesos REST request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestRequest {
    /// The operation to perform.
    pub method: RestMethod,
    /// Object or policy key (may be empty for e.g. `createTx`).
    pub key: String,
    /// Object payload or policy text.
    pub value: Vec<u8>,
    /// Identifier of a previously installed policy to associate.
    pub policy_id: Option<String>,
    /// Execute asynchronously if the method supports it.
    pub asynchronous: bool,
    /// Transaction handle for transactional sub-operations.
    pub tx_id: Option<u64>,
    /// Expected object version (used by versioned-store clients).
    pub expected_version: Option<u64>,
}

impl RestRequest {
    /// Creates a request with the given method and key and no payload.
    pub fn new(method: RestMethod, key: impl Into<String>) -> Self {
        RestRequest {
            method,
            key: key.into(),
            value: Vec::new(),
            policy_id: None,
            asynchronous: false,
            tx_id: None,
            expected_version: None,
        }
    }

    /// Creates a `put` request.
    pub fn put(key: impl Into<String>, value: Vec<u8>) -> Self {
        let mut r = Self::new(RestMethod::Put, key);
        r.value = value;
        r
    }

    /// Creates a `get` request.
    pub fn get(key: impl Into<String>) -> Self {
        Self::new(RestMethod::Get, key)
    }

    /// Creates a `delete` request.
    pub fn delete(key: impl Into<String>) -> Self {
        Self::new(RestMethod::Delete, key)
    }

    /// Sets the associated policy identifier.
    pub fn with_policy(mut self, policy_id: impl Into<String>) -> Self {
        self.policy_id = Some(policy_id.into());
        self
    }

    /// Marks the request asynchronous.
    pub fn asynchronous(mut self) -> Self {
        self.asynchronous = true;
        self
    }

    /// Sets the transaction handle.
    pub fn in_tx(mut self, tx_id: u64) -> Self {
        self.tx_id = Some(tx_id);
        self
    }

    /// Sets the expected version.
    pub fn with_version(mut self, version: u64) -> Self {
        self.expected_version = Some(version);
        self
    }
}

/// Outcome classification of a REST operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestStatus {
    /// The operation completed successfully.
    Ok,
    /// The operation was accepted for asynchronous execution.
    Accepted,
    /// The policy check denied the operation.
    PolicyDenied,
    /// The object or policy was not found.
    NotFound,
    /// A version or transaction conflict occurred.
    Conflict,
    /// The request was malformed.
    BadRequest,
    /// A backend (disk) or internal error occurred.
    BackendError,
}

impl RestStatus {
    /// True if the operation succeeded (including async acceptance).
    pub fn is_success(self) -> bool {
        matches!(self, RestStatus::Ok | RestStatus::Accepted)
    }
}

/// A typed Pesos REST response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestResponse {
    /// The outcome.
    pub status: RestStatus,
    /// Object payload (for `get`), policy text (for `getPolicy`) or empty.
    pub value: Vec<u8>,
    /// Operation identifier for asynchronous requests.
    pub operation_id: Option<u64>,
    /// Version of the object involved, when known.
    pub version: Option<u64>,
    /// Human-readable detail for failures.
    pub detail: Option<String>,
}

impl RestResponse {
    /// Creates a successful response with a payload.
    pub fn ok(value: Vec<u8>) -> Self {
        RestResponse {
            status: RestStatus::Ok,
            value,
            operation_id: None,
            version: None,
            detail: None,
        }
    }

    /// Creates an empty successful response.
    pub fn ok_empty() -> Self {
        Self::ok(Vec::new())
    }

    /// Creates an "accepted" response carrying the async operation id.
    pub fn accepted(operation_id: u64) -> Self {
        RestResponse {
            status: RestStatus::Accepted,
            value: Vec::new(),
            operation_id: Some(operation_id),
            version: None,
            detail: None,
        }
    }

    /// Creates a failure response.
    pub fn failure(status: RestStatus, detail: impl Into<String>) -> Self {
        RestResponse {
            status,
            value: Vec::new(),
            operation_id: None,
            version: None,
            detail: Some(detail.into()),
        }
    }

    /// Attaches a version number.
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = Some(version);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_name_round_trip() {
        let all = [
            RestMethod::Put,
            RestMethod::Get,
            RestMethod::Delete,
            RestMethod::Update,
            RestMethod::PutPolicy,
            RestMethod::GetPolicy,
            RestMethod::AttachPolicy,
            RestMethod::PollResult,
            RestMethod::CreateTx,
            RestMethod::AddRead,
            RestMethod::AddWrite,
            RestMethod::CommitTx,
            RestMethod::AbortTx,
            RestMethod::CheckResults,
            RestMethod::Status,
            RestMethod::Stats,
        ];
        for m in all {
            assert_eq!(RestMethod::parse(m.as_str()).unwrap(), m);
        }
        assert!(RestMethod::parse("bogus").is_err());
    }

    #[test]
    fn stats_key_carries_path_and_query_verbatim() {
        // The dispatcher, not this model, splits `path?query`: the typed
        // request must hand it over untouched.
        let req = RestRequest::new(RestMethod::Stats, "groups/hot?top=16&flat");
        assert_eq!(req.key, "groups/hot?top=16&flat");
        assert!(req.value.is_empty());
        assert!(!RestMethod::Stats.is_write());
    }

    #[test]
    fn async_support_matches_paper() {
        assert!(RestMethod::Put.supports_async());
        assert!(RestMethod::Update.supports_async());
        assert!(RestMethod::Delete.supports_async());
        assert!(!RestMethod::Get.supports_async());
        assert!(!RestMethod::PollResult.supports_async());
    }
}
