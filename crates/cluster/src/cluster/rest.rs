//! REST dispatch and the [`RequestEndpoint`] surface: both translate a
//! client call into the routed operations of the sibling modules. This is
//! the workspace's only REST dispatcher; a client of a single controller
//! reaches it through a one-partition cluster.

use std::sync::Arc;

use pesos_core::{
    parse_policy_id, AsyncResult, ClientRequest, ClientResponse, HashedKey, PesosError,
    RequestEndpoint, TxOutcome,
};
use pesos_crypto::Certificate;
use pesos_policy::PolicyId;
use pesos_wire::{RestMethod, RestRequest, RestResponse, RestStatus};

use super::{stats, ControllerCluster};

impl ControllerCluster {
    /// Handles a REST request for an authenticated client, routing it
    /// through the cluster: keyed object methods go to the owning
    /// partition, policy installation broadcasts, transaction methods run
    /// the two-phase path, and status aggregates every partition.
    pub fn handle(&self, client_id: &str, request: ClientRequest) -> ClientResponse {
        match self.dispatch(client_id, &request) {
            Ok(response) => response,
            Err(e) => e.rest_response(),
        }
    }

    fn dispatch(
        &self,
        client_id: &str,
        request: &ClientRequest,
    ) -> Result<ClientResponse, PesosError> {
        let rest: &RestRequest = &request.rest;
        let certs = &request.certificates;
        match rest.method {
            RestMethod::Status => {
                // Healthy only if every partition's primary is up.
                let routing = self.routing.read().clone();
                let table = &routing.table;
                if let Some(down) = table.partitions().position(|p| p.controller.is_failed()) {
                    return Err(PesosError::Unavailable(format!("partition {down} is down")));
                }
                Ok(RestResponse::ok(
                    format!("pesos cluster: ok ({} partitions)", table.len()).into_bytes(),
                ))
            }
            RestMethod::PutPolicy => {
                let id = self.put_policy(client_id, request.policy_source()?)?;
                Ok(RestResponse::ok(id.to_hex().into_bytes()))
            }
            RestMethod::GetPolicy => {
                // Policies are broadcast on install and copied to joiners,
                // so partition 0 normally has every one — but scan the
                // rest anyway (like check_results) so a read never fails
                // while any partition still holds the policy.
                self.require_client(client_id)?;
                let id = parse_policy_id(&rest.key)?;
                let routing = self.routing.read().clone();
                let mut fault = None;
                let mut policy = None;
                for partition in routing.table.partitions() {
                    match partition.controller.store().load_policy(&id) {
                        Ok(p) => {
                            policy = Some(p);
                            break;
                        }
                        Err(PesosError::PolicyNotFound(_)) => {}
                        // A decode/integrity fault is not "no such
                        // policy"; keep it in case no partition serves
                        // the read.
                        Err(e) => {
                            fault.get_or_insert(e);
                        }
                    }
                }
                let policy = match (policy, fault) {
                    (Some(p), _) => p,
                    (None, Some(e)) => return Err(e),
                    (None, None) => return Err(PesosError::PolicyNotFound(id.to_hex())),
                };
                Ok(RestResponse::ok(policy.to_bytes()))
            }
            RestMethod::AttachPolicy => {
                let id = request.required_policy_id()?;
                self.attach_policy(client_id, &rest.key, id, certs)?;
                Ok(RestResponse::ok_empty())
            }
            RestMethod::Put | RestMethod::Update => {
                let policy_id = request.policy_id()?;
                if rest.asynchronous {
                    let op = self.put_async(
                        client_id,
                        &rest.key,
                        rest.value.clone(),
                        policy_id,
                        rest.expected_version,
                        certs,
                    )?;
                    Ok(RestResponse::accepted(op))
                } else {
                    let version = self.put(
                        client_id,
                        &rest.key,
                        &rest.value,
                        policy_id,
                        rest.expected_version,
                        certs,
                    )?;
                    Ok(RestResponse::ok_empty().with_version(version))
                }
            }
            RestMethod::Get => match rest.expected_version {
                Some(version) => {
                    let value = self.get_version(client_id, &rest.key, version, certs)?;
                    Ok(RestResponse::ok(value).with_version(version))
                }
                None => {
                    let (value, version) = self.get(client_id, &rest.key, certs)?;
                    Ok(RestResponse::ok((*value).clone()).with_version(version))
                }
            },
            RestMethod::Delete => {
                self.delete(client_id, &rest.key, certs)?;
                Ok(RestResponse::ok_empty())
            }
            RestMethod::PollResult => {
                let op_id = request.operation_id()?;
                poll_response(op_id, self.poll_result(client_id, op_id))
            }
            RestMethod::CreateTx => {
                let tx = self.create_tx(client_id)?;
                Ok(RestResponse::ok(tx.to_string().into_bytes()))
            }
            RestMethod::AddRead => {
                self.add_read(client_id, request.tx_id()?, &rest.key)?;
                Ok(RestResponse::ok_empty())
            }
            RestMethod::AddWrite => {
                self.add_write(client_id, request.tx_id()?, &rest.key, rest.value.clone())?;
                Ok(RestResponse::ok_empty())
            }
            RestMethod::CommitTx => self
                .commit_tx(client_id, request.tx_id()?)
                .map(tx_outcome_response),
            RestMethod::AbortTx => {
                self.abort_tx(client_id, request.tx_id()?)?;
                Ok(RestResponse::ok_empty())
            }
            RestMethod::CheckResults => self
                .check_results(client_id, request.tx_id()?)
                .map(tx_outcome_response),
            RestMethod::Stats => {
                self.require_client(client_id)?;
                let (path, query) = pesos_telemetry::split_query(&rest.key);
                if path.trim_matches('/') == "reset" {
                    self.reset_window();
                    return Ok(RestResponse::ok_empty());
                }
                let top = pesos_telemetry::query_param(query, "top")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(stats::DEFAULT_TOP_GROUPS);
                let flat = pesos_telemetry::query_param(query, "flat").is_some();
                pesos_telemetry::serve(&self.stats_tree(top), path, flat)
                    .map(|body| RestResponse::ok(body.into_bytes()))
                    .ok_or_else(|| PesosError::ObjectNotFound(format!("stats path {path:?}")))
            }
        }
    }
}

/// A transaction's outcome on the wire: its write versions, comma-joined.
fn tx_outcome_response(outcome: TxOutcome) -> RestResponse {
    let versions: Vec<String> = outcome.write_versions.iter().map(u64::to_string).collect();
    RestResponse::ok(versions.join(",").into_bytes())
}

/// The answer to a `PollResult` for operation `op_id`: done (with the
/// version written, if any), still pending, failed, or unknown.
fn poll_response(op_id: u64, result: Option<AsyncResult>) -> Result<RestResponse, PesosError> {
    match result {
        Some(AsyncResult::Completed { version: Some(v) }) => {
            Ok(RestResponse::ok_empty().with_version(v))
        }
        Some(AsyncResult::Completed { version: None }) => Ok(RestResponse::ok_empty()),
        Some(AsyncResult::Pending) => Ok(RestResponse::accepted(op_id)),
        Some(AsyncResult::Failed { reason }) => {
            Ok(RestResponse::failure(RestStatus::BackendError, reason))
        }
        None => Err(PesosError::ObjectNotFound(format!("operation {op_id}"))),
    }
}

impl RequestEndpoint for ControllerCluster {
    fn register_client(&self, client_id: &str) -> String {
        ControllerCluster::register_client(self, client_id)
    }

    fn put_policy(&self, client_id: &str, source: &str) -> Result<PolicyId, PesosError> {
        ControllerCluster::put_policy(self, client_id, source)
    }

    fn put(
        &self,
        client_id: &str,
        key: &str,
        value: Vec<u8>,
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        certificates: &[Certificate],
    ) -> Result<u64, PesosError> {
        ControllerCluster::put(
            self,
            client_id,
            key,
            value,
            policy_id,
            expected_version,
            certificates,
        )
    }

    fn put_async(
        &self,
        client_id: &str,
        key: &str,
        value: Vec<u8>,
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        certificates: &[Certificate],
    ) -> Result<u64, PesosError> {
        ControllerCluster::put_async(
            self,
            client_id,
            key,
            value,
            policy_id,
            expected_version,
            certificates,
        )
    }

    fn get(
        &self,
        client_id: &str,
        key: &str,
        certificates: &[Certificate],
    ) -> Result<(Arc<Vec<u8>>, u64), PesosError> {
        ControllerCluster::get(self, client_id, key, certificates)
    }

    fn delete(
        &self,
        client_id: &str,
        key: &str,
        certificates: &[Certificate],
    ) -> Result<(), PesosError> {
        ControllerCluster::delete(self, client_id, key, certificates)
    }

    fn latest_version(&self, key: &str) -> Option<u64> {
        let hashed = HashedKey::new(key);
        // Best-effort (no demand pull), but never wrong about presence:
        // the ops-gate read side keeps the routing snapshot consistent
        // with the probes (a topology change cannot install mid-lookup),
        // and each migration probe runs under the key's striped migration
        // lock, so the key cannot finish moving between the destination
        // and source probes — without the stripe, a concurrent pull could
        // import the key at the destination after we probed it and delete
        // the source copy before we got there, reporting a live object as
        // missing. Destination before source: writes during a migration
        // land at the destination, so it holds the freshest version.
        // Migration membership goes by the *routing* hash (ranges
        // partition the placement-group space); the stripe and the store
        // probes keep using the full-key hash, like every other path.
        let _gate = self.ops_gate.read();
        let routing = self.routing.read().clone();
        for migration in &routing.migrations {
            if migration.range.contains(Self::routing_hash(&hashed)) {
                let _stripe = self.migration_locks.get(&hashed).lock();
                if migration.moved_pending_delete.lock().contains(key) {
                    // Only the stale source copy's delete is outstanding;
                    // the destination is authoritative (the source would
                    // resurrect a client delete).
                    return migration
                        .dst
                        .controller
                        .store()
                        .get_metadata(&hashed)
                        .map(|m| m.latest_version);
                }
                if let Some(meta) = migration.dst.controller.store().get_metadata(&hashed) {
                    return Some(meta.latest_version);
                }
                if let Some(meta) = migration.src.controller.store().get_metadata(&hashed) {
                    return Some(meta.latest_version);
                }
            }
        }
        routing
            .table
            .route(Self::routing_hash(&hashed))
            .controller
            .store()
            .get_metadata(&hashed)
            .map(|m| m.latest_version)
    }

    fn drain_async(&self) {
        ControllerCluster::drain_async(self)
    }
}
