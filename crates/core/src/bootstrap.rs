//! Store bootstrap: attestation, secret provisioning and exclusive drive
//! takeover. A controller is built over the store it produces.
//!
//! The paper's workflow (§1, §3.1): when Pesos starts, the attestation
//! service verifies that the controller runs on the correct hardware and
//! that its binary has not been altered, and only then provides the
//! encryption and authentication keys used at runtime. The controller then
//! connects to its assigned Kinetic disks and takes exclusive control by
//! removing every other user account, locking out the cloud provider.

use std::sync::Arc;

use pesos_kinetic::protocol::AccountSpec;
use pesos_kinetic::{ClientConfig, DriveConfig, DriveSet, KineticClient, KineticDrive, Permission};
use pesos_sgx::attestation::{AttestationService, ProvisionedSecrets, QuotingEnclave};
use pesos_sgx::cost::ModeCost;
use pesos_sgx::{Enclave, EnclaveConfig, HostPool, SgxCostModel};

use crate::config::ControllerConfig;
use crate::encryption::ObjectCrypter;
use crate::error::PesosError;
use crate::store::{PesosStore, StoreOptions};

/// The Pesos administrative identity installed on every drive.
pub const PESOS_ADMIN_IDENTITY: i64 = 100;

/// Cluster version set once Pesos owns a drive, so that stale clients using
/// the factory configuration are rejected outright.
pub const PESOS_CLUSTER_VERSION: u64 = 1;

/// Human-readable summary of the bootstrap, as a store reports it
/// ([`crate::PesosStore::report`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootstrapReport {
    /// Hex enclave measurement that was attested.
    pub measurement: String,
    /// Identifiers of the drives taken over.
    pub drives: Vec<String>,
    /// Hex fingerprints of each drive's device certificate (pinned so that
    /// whole-drive replacement is detectable on restart).
    pub device_certificates: Vec<String>,
    /// Whether object encryption is enabled.
    pub encryption_enabled: bool,
}

/// Derives the per-drive admin secret from the provisioned credentials.
pub fn admin_secret_for(secrets: &ProvisionedSecrets, drive_id: &str) -> Vec<u8> {
    secrets
        .disk_credentials
        .iter()
        .find(|(id, _)| id == drive_id)
        .map(|(_, s)| s.clone())
        .unwrap_or_else(|| {
            pesos_crypto::hkdf::derive_key32(&secrets.storage_master_key, drive_id.as_bytes())
                .to_vec()
        })
}

/// Runs the full bootstrap for `config`, creating the drives in the process
/// (in a real deployment the drives already exist on the network; the
/// simulator creates them here), and returns the store over them. The
/// enclave joins the host I/O `pool` with `config.syscall_threads` service
/// threads and their slots.
pub fn bootstrap(
    config: &ControllerConfig,
    pool: &Arc<HostPool>,
) -> Result<PesosStore, PesosError> {
    config.validate()?;
    let cost = ModeCost::new(config.mode, SgxCostModel::default());

    // 1. Load the enclave and compute its measurement.
    let enclave = Arc::new(Enclave::create(EnclaveConfig::default(), cost)?);
    let asyscall = Arc::new(pool.join(config.syscall_threads, config.syscall_slots(), cost)?);

    // 2. Remote attestation against the attestation service, which holds the
    //    runtime secrets. In this reproduction the service is instantiated
    //    in-process with freshly generated secrets; its verification logic is
    //    identical to a remote deployment.
    let drive_ids: Vec<String> = (0..config.drive_count)
        .map(|i| format!("kd-{i:02}"))
        .collect();
    let secrets = ProvisionedSecrets {
        tls_key_seed: pesos_crypto::sha256(b"pesos-controller-tls-seed").to_vec(),
        disk_credentials: drive_ids
            .iter()
            .map(|id| {
                (
                    id.clone(),
                    pesos_crypto::hkdf::derive_key32(b"pesos-disk-credential", id.as_bytes())
                        .to_vec(),
                )
            })
            .collect(),
        storage_master_key: pesos_crypto::hkdf::derive_key32(b"pesos-storage-master", b"v1"),
    };

    let quoting = QuotingEnclave::new(b"pesos-platform");
    let mut service = AttestationService::new(secrets);
    service.trust_platform(quoting.platform_public_key());
    service.expect_measurement(enclave.measurement());

    let mut report_data = [0u8; 64];
    if let Some(head) = report_data.first_chunk_mut() {
        *head = pesos_crypto::sha256(b"pesos-provisioning-key");
    }
    let quote = quoting.quote(&enclave, report_data);
    let sealed = service
        .provision(&quote)
        .map_err(|e| PesosError::Bootstrap(e.to_string()))?;
    let secrets = AttestationService::unseal_provisioned(&report_data, &sealed)
        .map_err(|e| PesosError::Bootstrap(e.to_string()))?;

    // 3. Create/attach the drives and take exclusive control of each.
    let mut drives = DriveSet::new();
    let mut clients = Vec::new();

    for id in &drive_ids {
        let drive_config = match config.drive_backend {
            pesos_kinetic::backend::BackendKind::Memory => DriveConfig::simulator(id.clone()),
            pesos_kinetic::backend::BackendKind::Hdd => DriveConfig::hdd(id.clone()),
        };
        let drive = Arc::new(KineticDrive::new(drive_config));

        // Pin the device certificate before trusting the drive with data.
        drive
            .device_certificate()
            .verify_signature()
            .map_err(|e| PesosError::Bootstrap(format!("device certificate invalid: {e}")))?;

        // Connect with the factory account and replace ALL accounts with the
        // single Pesos administrative identity.
        let factory =
            KineticClient::connect(Arc::clone(&drive), ClientConfig::factory_default())
                .map_err(|e| PesosError::Bootstrap(format!("cannot reach drive {id}: {e}")))?;
        let admin_secret = admin_secret_for(&secrets, id);
        factory
            .replace_accounts(vec![AccountSpec {
                identity: PESOS_ADMIN_IDENTITY,
                secret: admin_secret.clone(),
                permissions: Permission::all(),
            }])
            .map_err(|e| PesosError::Bootstrap(format!("takeover of {id} failed: {e}")))?;

        // Reconnect as the Pesos admin and bump the cluster version.
        let admin = KineticClient::connect(
            Arc::clone(&drive),
            ClientConfig::admin(PESOS_ADMIN_IDENTITY, admin_secret.clone(), 0),
        )
        .map_err(|e| PesosError::Bootstrap(format!("admin connect to {id} failed: {e}")))?;
        admin
            .setup(Some(PESOS_CLUSTER_VERSION), false)
            .map_err(|e| PesosError::Bootstrap(format!("setup of {id} failed: {e}")))?;
        drop(admin);
        let session = KineticClient::connect(
            Arc::clone(&drive),
            ClientConfig::admin(PESOS_ADMIN_IDENTITY, admin_secret, PESOS_CLUSTER_VERSION),
        )
        .map_err(|e| PesosError::Bootstrap(format!("session connect to {id} failed: {e}")))?;

        drives.add(Arc::clone(&drive));
        clients.push(Arc::new(session));
    }

    Ok(PesosStore::new(
        drives,
        clients,
        ObjectCrypter::new(&secrets.storage_master_key, config.encrypt_objects),
        StoreOptions::from_config(config),
        asyscall,
        enclave,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_takes_exclusive_control() {
        let config = ControllerConfig::native_simulator(2);
        let store = bootstrap(&config, &HostPool::new(config.syscall_slots())).unwrap();
        assert_eq!(store.drives().len(), 2);
        assert_eq!(store.report().device_certificates.len(), 2);

        // The factory account no longer works on any drive.
        for drive in store.drives().iter() {
            assert!(
                KineticClient::connect(Arc::clone(drive), ClientConfig::factory_default()).is_err()
            );
        }
        // The store's admin sessions do.
        for index in 0..2 {
            store.drive_keys(index).unwrap();
        }
    }

    #[test]
    fn bootstrap_rejects_invalid_config() {
        let mut config = ControllerConfig::native_simulator(1);
        config.replication_factor = 5;
        assert!(bootstrap(&config, &HostPool::new(1)).is_err());
    }

    #[test]
    fn admin_secret_is_per_drive() {
        let secrets = ProvisionedSecrets {
            tls_key_seed: vec![],
            disk_credentials: vec![("kd-00".into(), vec![1, 2, 3])],
            storage_master_key: [0u8; 32],
        };
        assert_eq!(admin_secret_for(&secrets, "kd-00"), vec![1, 2, 3]);
        // Unknown drives get a derived (non-empty, distinct) secret.
        let a = admin_secret_for(&secrets, "kd-01");
        let b = admin_secret_for(&secrets, "kd-02");
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
    }
}
