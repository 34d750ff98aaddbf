//! Mandatory access logging (paper §5.4): every access to a protected
//! object must first be announced in a log object; Pesos grants the access
//! only if the log contains the matching intent.
//!
//! ```text
//! cargo run --example mandatory_access_logging
//! ```

use pesos::{ControllerConfig, PesosController};

fn main() {
    let controller =
        PesosController::new(ControllerConfig::sgx_simulator(1)).expect("bootstrap failed");
    let alice = controller.register_client("alice");
    let auditor = controller.register_client("auditor");

    // The MAL policy of §5.4 (read side), relying on the object's log.
    let mal_policy = controller
        .put_policy(
            &alice,
            "read :- objId(THIS, O) and objId(LOG, L) and currVersion(O, V) and \
                     sessionKeyIs(U) and objSays(L, LV, 'read'(O, V, U))\n\
             update :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"alice\")",
        )
        .expect("policy");

    // The protected record and its (initially empty) log object.
    controller
        .put(
            &alice,
            "medical/record-7",
            b"blood type: 0+",
            Some(mal_policy),
            None,
            &[],
        )
        .expect("create record");
    controller
        .put(&alice, "medical/record-7.log", b"", None, None, &[])
        .expect("create log");

    // Reading without announcing the access in the log is denied.
    let denied = controller.get(&alice, "medical/record-7", &[]);
    println!("unlogged read denied: {}", denied.is_err());

    // Announce the intent: append `read("<object>", <version>, "<client>")`.
    let entry = "read(\"medical/record-7\",0,\"alice\")\n";
    controller
        .put(
            &alice,
            "medical/record-7.log",
            entry.as_bytes(),
            None,
            None,
            &[],
        )
        .expect("append log entry");

    // Now the read succeeds, and the log preserves the provenance trail.
    let (value, _) = controller
        .get(&alice, "medical/record-7", &[])
        .expect("logged read");
    println!("logged read succeeded: {}", String::from_utf8_lossy(&value));

    let (log, log_version) = controller
        .get(&auditor, "medical/record-7.log", &[])
        .expect("auditor reads log");
    println!(
        "audit log (version {log_version}):\n{}",
        String::from_utf8_lossy(&log)
    );
}
