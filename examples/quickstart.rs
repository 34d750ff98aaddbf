//! Quickstart: boot a Pesos controller against simulated Kinetic drives,
//! install a simple access-control policy and perform a few operations.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use pesos::{ControllerConfig, PesosController};

fn main() {
    // Bootstrap: attestation, secret provisioning, exclusive drive takeover.
    let controller =
        PesosController::new(ControllerConfig::sgx_simulator(2)).expect("bootstrap failed");
    println!("enclave measurement : {}", controller.report().measurement);
    println!("drives taken over   : {:?}", controller.report().drives);

    // Register two clients (in production these identities are the
    // fingerprints of the TLS client certificates).
    let alice = controller.register_client("alice");
    let bob = controller.register_client("bob");

    // Install a per-object access-control policy.
    let policy = controller
        .put_policy(
            &alice,
            "read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\n\
             update :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"alice\")",
        )
        .expect("policy compilation failed");
    println!("installed policy    : {}", policy.to_hex());

    // Alice stores an object governed by the policy.
    let version = controller
        .put(
            &alice,
            "greetings/hello",
            b"hello pesos",
            Some(policy),
            None,
            &[],
        )
        .expect("put failed");
    println!("stored version      : {version}");

    // Bob may read it...
    let (value, _) = controller
        .get(&bob, "greetings/hello", &[])
        .expect("read failed");
    println!("bob read            : {}", String::from_utf8_lossy(&value));

    // ...but not overwrite it.
    let denied = controller.put(&bob, "greetings/hello", b"defaced", None, None, &[]);
    println!("bob update denied   : {}", denied.is_err());

    // The controller's request counters, as `/stats` serves them.
    let stats = controller.stats_tree();
    let metrics = stats.resolve("metrics").expect("a metrics group");
    print!("metrics             :\n{}", metrics.render_tree());
}
