//! Controller configuration.

use pesos_kinetic::backend::BackendKind;
use pesos_sgx::ExecutionMode;

/// Static configuration of one Pesos controller instance.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Whether the controller runs natively or inside the simulated
    /// enclave, where the default SGX cost model is charged.
    pub mode: ExecutionMode,
    /// Number of Kinetic drives to create/attach.
    pub drive_count: usize,
    /// Timing backend used by the drives.
    pub drive_backend: BackendKind,
    /// Replication factor (1 = no replication).
    pub replication_factor: usize,
    /// Encrypt object payloads before writing them to the drives.
    pub encrypt_objects: bool,
    /// Capacity of the policy cache in entries (paper: 50 000), split
    /// evenly over `lock_shards` shards (at least one entry each). The
    /// policy and object caches are one LFU table (`pesos_core::lfu`): a
    /// full shard evicts its least-hit entry, and a policy read back after
    /// a miss lands only if its recent lookups outnumber its victim's.
    pub policy_cache_capacity: usize,
    /// Budget of the object cache in bytes (paper: bounded well below EPC),
    /// each entry weighing its value's bytes plus its name's.
    pub object_cache_bytes: usize,
    /// Untrusted system-call service threads.
    pub syscall_threads: usize,
    /// Lock shards for the in-enclave metadata map, the object cache and
    /// the policy cache (and the session table, the transaction-outcome map
    /// and the async result buffer). Sessions operating on keys that hash to
    /// different shards never contend; 1 reproduces the old
    /// single-global-lock behaviour. Each cache splits its budget evenly
    /// across its shards and evicts and admits per shard, so the largest
    /// cacheable object is `object_cache_bytes / lock_shards` and a shard
    /// holds `policy_cache_capacity / lock_shards` policies. The store's
    /// per-key write locks are `lock_shards × 256` stripes, derived from
    /// this value (`store` module docs, "Key locks are striped").
    pub lock_shards: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            mode: ExecutionMode::Sgx,
            drive_count: 1,
            drive_backend: BackendKind::Memory,
            replication_factor: 1,
            encrypt_objects: true,
            policy_cache_capacity: 50_000,
            object_cache_bytes: 16 * 1024 * 1024,
            syscall_threads: 4,
            lock_shards: 16,
        }
    }
}

impl ControllerConfig {
    /// Configuration mirroring the paper's "Pesos Sim" setup: SGX costs on,
    /// in-memory drive backend.
    pub fn sgx_simulator(drives: usize) -> Self {
        ControllerConfig {
            mode: ExecutionMode::Sgx,
            drive_count: drives,
            drive_backend: BackendKind::Memory,
            ..ControllerConfig::default()
        }
    }

    /// Configuration mirroring the paper's "Native Sim" setup.
    pub fn native_simulator(drives: usize) -> Self {
        ControllerConfig {
            mode: ExecutionMode::Native,
            drive_count: drives,
            drive_backend: BackendKind::Memory,
            ..ControllerConfig::default()
        }
    }

    /// Configuration mirroring the paper's "Pesos Disk" setup (HDD model).
    pub fn sgx_disk(drives: usize) -> Self {
        ControllerConfig {
            mode: ExecutionMode::Sgx,
            drive_count: drives,
            drive_backend: BackendKind::Hdd,
            ..ControllerConfig::default()
        }
    }

    /// Configuration mirroring the paper's "Native Disk" setup.
    pub fn native_disk(drives: usize) -> Self {
        ControllerConfig {
            mode: ExecutionMode::Native,
            drive_count: drives,
            drive_backend: BackendKind::Hdd,
            ..ControllerConfig::default()
        }
    }

    /// The system-call slots the controller brings to its host I/O pool:
    /// eight per service thread.
    pub fn syscall_slots(&self) -> usize {
        self.syscall_threads * 8
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), crate::error::PesosError> {
        if self.drive_count == 0 {
            return Err(crate::error::PesosError::BadRequest(
                "drive_count must be at least 1".into(),
            ));
        }
        if self.replication_factor == 0 || self.replication_factor > self.drive_count {
            return Err(crate::error::PesosError::BadRequest(format!(
                "replication_factor {} must be in 1..={}",
                self.replication_factor, self.drive_count
            )));
        }
        if self.lock_shards == 0 {
            return Err(crate::error::PesosError::BadRequest(
                "lock_shards must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_configurations() {
        let s = ControllerConfig::sgx_simulator(3);
        assert_eq!(s.mode, ExecutionMode::Sgx);
        assert_eq!(s.drive_backend, BackendKind::Memory);
        assert_eq!(s.drive_count, 3);
        let n = ControllerConfig::native_disk(2);
        assert_eq!(n.mode, ExecutionMode::Native);
        assert_eq!(n.drive_backend, BackendKind::Hdd);
        assert_eq!(ControllerConfig::default().policy_cache_capacity, 50_000);
    }

    #[test]
    fn validation() {
        assert!(ControllerConfig::default().validate().is_ok());
        let c = ControllerConfig {
            drive_count: 0,
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ControllerConfig {
            replication_factor: 3,
            ..ControllerConfig::sgx_simulator(2)
        };
        assert!(c.validate().is_err());
        let c = ControllerConfig {
            lock_shards: 0,
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn sharding_defaults() {
        let c = ControllerConfig::default();
        assert!(c.lock_shards >= 1);
    }
}
