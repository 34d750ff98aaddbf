//! The system under test: builds the deployment a workload names, registers
//! the clients, installs policies and loads the records.
//!
//! Only the API surface listed in the benchmark's issue is called here, so
//! the package keeps compiling through the roadmap's planned deletions.

use std::sync::Arc;

use pesos_cluster::{ClusterConfig, ControllerCluster};
use pesos_core::{ControllerConfig, PesosController, PesosError, RequestEndpoint};
use pesos_policy::PolicyId;

use crate::gen::Inputs;
use crate::workload::{Deploy, Spec};

/// Client that issues plain gets and puts, one per client thread.
pub fn client_id(client: usize) -> String {
    format!("client-{client}")
}
/// Client the policies grant reads to.
pub const READER: &str = "reader";
/// Client the policies grant updates to.
pub const WRITER: &str = "writer";
/// Client no policy grants anything to.
pub const INTRUDER: &str = "intruder";

/// Distinct MAL-style policies installed for a policy workload.
pub const POLICY_COUNT: usize = 64;
/// Entries in each record's `<key>.log` grant list.
pub const LOG_ENTRIES: usize = 16;

/// Source of policy `index`: reads need a matching grant in the record's
/// log object (`objSays` over `<key>.log`, the MAL shape of paper §5.4);
/// updates are versioned and restricted to the writer. The literal `index`
/// makes the 64 policies distinct.
pub fn policy_source(index: usize) -> String {
    format!(
        "read :- objId(LOG, L) and sessionKeyIs(U) and objSays(L, LV, 'grant'(U, {index}))\n\
         update :- objId(THIS, O) and currVersion(O, CV) and nextVersion(CV + 1) and sessionKeyIs(\"{WRITER}\")\n\
         delete :- sessionKeyIs(\"{WRITER}\")"
    )
}

/// Contents of the log object of record `key` under policy `index`:
/// `LOG_ENTRIES` grants, the reader's at a position that varies by record.
pub fn log_contents(key: usize, index: usize) -> Vec<u8> {
    let reader_at = key % LOG_ENTRIES;
    let mut text = String::new();
    for entry in 0..LOG_ENTRIES {
        if entry == reader_at {
            text.push_str(&format!("grant(\"{READER}\",{index})\n"));
        } else {
            text.push_str(&format!("grant(\"user-{entry:02}\",{index})\n"));
        }
    }
    text.into_bytes()
}

/// A bootstrapped deployment.
pub enum Target {
    Single(Arc<PesosController>),
    Cluster(Arc<ControllerCluster>),
}

impl Target {
    /// Bootstraps the deployment `spec` names.
    pub fn bootstrap(spec: &Spec) -> Result<Target, PesosError> {
        Ok(match spec.deploy {
            Deploy::Simulator { object_cache_bytes } => {
                let config = ControllerConfig {
                    object_cache_bytes,
                    ..ControllerConfig::sgx_simulator(1)
                };
                Target::Single(Arc::new(PesosController::new(config)?))
            }
            Deploy::Disk {
                drives,
                replication,
            } => {
                let config = ControllerConfig {
                    replication_factor: replication,
                    ..ControllerConfig::sgx_disk(drives)
                };
                Target::Single(Arc::new(PesosController::new(config)?))
            }
            Deploy::Cluster {
                controllers,
                backups,
            } => {
                let config = ClusterConfig {
                    backups_per_partition: backups,
                    ..ClusterConfig::with_controller(
                        controllers,
                        ControllerConfig::sgx_simulator(1),
                    )
                };
                Target::Cluster(Arc::new(ControllerCluster::new(config)?))
            }
        })
    }

    /// The request surface clients drive.
    pub fn endpoint(&self) -> Arc<dyn RequestEndpoint> {
        match self {
            Target::Single(controller) => Arc::clone(controller) as Arc<dyn RequestEndpoint>,
            Target::Cluster(cluster) => Arc::clone(cluster) as Arc<dyn RequestEndpoint>,
        }
    }

    /// The primary controllers, in partition order.
    pub fn controllers(&self) -> Vec<Arc<PesosController>> {
        match self {
            Target::Single(controller) => vec![Arc::clone(controller)],
            Target::Cluster(cluster) => cluster.controllers(),
        }
    }
}

/// Bootstraps the deployment, registers the clients the inputs were generated
/// for, installs the policies and stores every record once (variant 0),
/// spreading the puts over `threads` threads.
pub fn load(spec: &Spec, inputs: &Inputs, threads: usize) -> Result<Target, PesosError> {
    let target = Target::bootstrap(spec)?;
    let endpoint = target.endpoint();
    for client in 0..inputs.streams.len() {
        endpoint.register_client(&client_id(client));
    }
    // Policy of each record (empty unless the workload has policies).
    let mut policies: Vec<PolicyId> = Vec::new();
    if spec.policy {
        for id in [READER, WRITER, INTRUDER] {
            endpoint.register_client(id);
        }
        let installed = (0..POLICY_COUNT)
            .map(|index| endpoint.put_policy(WRITER, &policy_source(index)))
            .collect::<Result<Vec<_>, _>>()?;
        policies = (0..spec.keys)
            .map(|key| installed[key % POLICY_COUNT])
            .collect();
    }

    let load_share = |client: usize| -> Result<(), PesosError> {
        let writer = if spec.policy {
            WRITER.to_string()
        } else {
            client_id(client)
        };
        for key in (client..spec.keys).step_by(threads) {
            let name = &inputs.keys[key];
            if spec.policy {
                endpoint.put(
                    &writer,
                    &format!("{name}.log"),
                    log_contents(key, key % POLICY_COUNT),
                    None,
                    None,
                    &[],
                )?;
            }
            endpoint.put(
                &writer,
                name,
                inputs.value(key as u32, 0).clone(),
                policies.get(key).copied(),
                None,
                &[],
            )?;
        }
        for index in (client..inputs.pair_keys.len()).step_by(threads) {
            endpoint.put(
                &writer,
                &inputs.pair_keys[index],
                inputs.pair_values[index].clone(),
                None,
                None,
                &[],
            )?;
        }
        Ok(())
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|client| scope.spawn(move || load_share(client)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Result<Vec<()>, PesosError>>()
    })?;
    drop(endpoint);
    Ok(target)
}
