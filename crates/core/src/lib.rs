//! The Pesos controller.
//!
//! This crate ties the substrates together into the system the paper
//! describes (§3–§4): a controller that runs inside an (simulated) SGX
//! enclave, takes exclusive control of a set of Kinetic drives at bootstrap,
//! serves authenticated clients (over REST through `pesos_cluster`, which a
//! single controller joins as a one-partition cluster), enforces the per-object
//! policies compiled by `pesos-policy` on every access, encrypts objects
//! before they reach the drives, caches objects and policies within the EPC
//! budget, offers an asynchronous request interface with a bounded result
//! buffer, supports ACID multi-object transactions via a VLL-style lock
//! manager, and replicates objects across drives with a deterministic
//! placement function.

pub mod bootstrap;
pub mod config;
pub mod controller;
pub mod encryption;
pub mod endpoint;
pub mod error;
/// The LFU table both in-enclave caches run on (canonical re-export; the
/// definition lives in `pesos-policy` beside `Sharded`).
pub mod lfu {
    pub use pesos_policy::lfu::{CacheStats, LfuShard, LfuTable};
}
pub mod metadata;
pub mod metrics;
pub mod object_cache;
pub mod placement;
pub mod request;
pub mod result_buffer;
pub mod session;
/// Generic lock sharding (canonical re-export; the definition lives in
/// `pesos-policy` because core depends on policy, not the other way
/// around).
pub mod sharded {
    pub use pesos_policy::sharded::{ShardKey, Sharded, ShardedFifoMap};
}
pub mod store;
pub mod transaction;

pub use bootstrap::BootstrapReport;
pub use config::ControllerConfig;
pub use controller::{PesosController, PreparedCommit};
pub use encryption::ObjectCrypter;
pub use endpoint::RequestEndpoint;
pub use error::PesosError;
pub use lfu::CacheStats;
pub use metadata::{MetadataHead, ObjectMetadata, ShardedMetadata, VersionMeta};
pub use metrics::ControllerMetrics;
pub use object_cache::ObjectCache;
pub use placement::{key_hash, placement, routing_hash, routing_prefix, HashedKey};
pub use request::{parse_policy_id, ClientRequest, ClientResponse};
pub use result_buffer::{AsyncResult, ResultBuffer};
pub use session::{SessionContext, SessionManager};
pub use sharded::{ShardKey, Sharded};
pub use store::{
    BatchLog, CreateStats, DecisionStats, ObjectExport, PesosStore, StoreOptions,
    TX_OUTCOME_CAPACITY,
};
pub use transaction::{PreparedTransaction, TransactionManager, TxOutcome, TxWrite};

pub use pesos_kinetic::{DriveConfig, DriveSet, KineticDrive};
pub use pesos_policy::Operation;
pub use pesos_sgx::ExecutionMode;
pub use pesos_wire::{RestMethod, RestRequest, RestResponse, RestStatus};
