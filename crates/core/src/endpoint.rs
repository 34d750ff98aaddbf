//! The object-store request surface, abstracted over deployment shape.
//!
//! A single [`PesosController`] and a multi-controller cluster expose the
//! same client-facing operations; [`RequestEndpoint`] captures that surface
//! so harnesses (the YCSB runner, benchmarks, examples) drive either
//! without caring how many controllers sit behind it. The trait is
//! object-safe — harness code holds an `Arc<dyn RequestEndpoint>`.

use std::sync::Arc;

use pesos_crypto::Certificate;
use pesos_policy::PolicyId;

use crate::controller::PesosController;
use crate::error::PesosError;

/// Anything that serves Pesos client requests: one controller, or a cluster
/// of them.
pub trait RequestEndpoint: Send + Sync {
    /// Registers a client by a stable identifier and opens its session.
    fn register_client(&self, client_id: &str) -> String;

    /// Installs a policy and returns its identifier.
    fn put_policy(&self, client_id: &str, source: &str) -> Result<PolicyId, PesosError>;

    /// Stores an object (optionally associating a policy); returns the new
    /// version.
    fn put(
        &self,
        client_id: &str,
        key: &str,
        value: Vec<u8>,
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        certificates: &[Certificate],
    ) -> Result<u64, PesosError>;

    /// Stores an object asynchronously; returns the operation identifier.
    fn put_async(
        &self,
        client_id: &str,
        key: &str,
        value: Vec<u8>,
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        certificates: &[Certificate],
    ) -> Result<u64, PesosError>;

    /// Retrieves the latest version of an object.
    fn get(
        &self,
        client_id: &str,
        key: &str,
        certificates: &[Certificate],
    ) -> Result<(Arc<Vec<u8>>, u64), PesosError>;

    /// Deletes an object.
    fn delete(
        &self,
        client_id: &str,
        key: &str,
        certificates: &[Certificate],
    ) -> Result<(), PesosError>;

    /// The latest stored version of `key`, if the object exists (used by
    /// versioned-store harness modes to derive the expected next version).
    ///
    /// Best-effort contract: this is a metadata probe, not a client
    /// operation — it runs no policy checks and, on a cluster, does not
    /// demand-pull the key out of an in-flight migration. Implementations
    /// must still never report an existing object as missing: the cluster
    /// probes a migrating key's destination and then its source under the
    /// migration's key stripe lock, so a key mid-move is observed on
    /// exactly one side. What may lag is the *version*: a write that
    /// commits concurrently with the probe can be reflected or not,
    /// exactly as for any unsynchronized reader.
    fn latest_version(&self, key: &str) -> Option<u64>;

    /// Parks until every accepted `put_async` has run, with no bound on
    /// the wait. Failover and topology changes call it so that no accepted
    /// write lands after them, and benchmarks call it to settle before
    /// they measure.
    fn drain_async(&self);
}

impl RequestEndpoint for PesosController {
    fn register_client(&self, client_id: &str) -> String {
        PesosController::register_client(self, client_id)
    }

    fn put_policy(&self, client_id: &str, source: &str) -> Result<PolicyId, PesosError> {
        PesosController::put_policy(self, client_id, source)
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
        PesosController::put(
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
        PesosController::put_async(
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
        PesosController::get(self, client_id, key, certificates)
    }

    fn delete(
        &self,
        client_id: &str,
        key: &str,
        certificates: &[Certificate],
    ) -> Result<(), PesosError> {
        PesosController::delete(self, client_id, key, certificates)
    }

    fn latest_version(&self, key: &str) -> Option<u64> {
        self.store().get_metadata(key).map(|m| m.latest_version)
    }

    fn drain_async(&self) {
        PesosController::drain_async(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControllerConfig;

    #[test]
    fn controller_serves_through_the_trait_object() {
        let controller =
            Arc::new(PesosController::new(ControllerConfig::native_simulator(1)).unwrap());
        let endpoint: Arc<dyn RequestEndpoint> = controller;
        endpoint.register_client("alice");
        endpoint
            .put("alice", "k", b"v1".to_vec(), None, None, &[])
            .unwrap();
        assert_eq!(endpoint.latest_version("k"), Some(0));
        let (value, version) = endpoint.get("alice", "k", &[]).unwrap();
        assert_eq!(&**value, b"v1");
        assert_eq!(version, 0);
        let op = endpoint
            .put_async("alice", "k", b"v2".to_vec(), None, None, &[])
            .unwrap();
        endpoint.drain_async();
        assert!(op > 0);
        assert_eq!(endpoint.latest_version("k"), Some(1));
        endpoint.delete("alice", "k", &[]).unwrap();
        assert_eq!(endpoint.latest_version("k"), None);
        assert!(endpoint.put_policy("alice", "read :- eq(1, 1)").is_ok());
    }
}
