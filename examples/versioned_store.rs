//! Versioned store (paper §5.3): every update must carry the next version
//! number; the full history of an object stays retrievable.
//!
//! ```text
//! cargo run --example versioned_store
//! ```

use pesos::{ControllerConfig, PesosController};

fn main() {
    let controller =
        PesosController::new(ControllerConfig::sgx_simulator(1)).expect("bootstrap failed");
    let writer = controller.register_client("writer");

    let policy = controller
        .put_policy(
            &writer,
            "update :- ( objId(this, O) and currVersion(O, CV) and nextVersion(CV + 1) ) \
             or ( objId(this, NULL) and nextVersion(0) )\n\
             read :- sessionKeyIs(U)\n\
             delete :- sessionKeyIs(\"writer\")",
        )
        .expect("policy");

    // Create the document at version 0 and evolve it.
    for (expected, text) in [(0u64, "draft"), (1, "reviewed"), (2, "published")] {
        let v = controller
            .put(
                &writer,
                "doc/report",
                text.as_bytes(),
                Some(policy),
                Some(expected),
                &[],
            )
            .expect("versioned update");
        println!("stored version {v}: {text}");
    }

    // A stale or skipped version number is rejected by the policy.
    let stale = controller.put(&writer, "doc/report", b"rollback", None, Some(1), &[]);
    println!("stale update rejected: {}", stale.is_err());
    let skip = controller.put(&writer, "doc/report", b"skip", None, Some(7), &[]);
    println!("skipped version rejected: {}", skip.is_err());

    // History reads: the corruption-forensics workflow from the paper.
    for version in 0..=2u64 {
        let contents = controller
            .get_version(&writer, "doc/report", version, &[])
            .expect("history read");
        println!("history v{version}: {}", String::from_utf8_lossy(&contents));
    }
    let (latest, version) = controller.get(&writer, "doc/report", &[]).unwrap();
    println!("latest (v{version}): {}", String::from_utf8_lossy(&latest));
}
