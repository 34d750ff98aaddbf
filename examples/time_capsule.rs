//! Time-based storage (paper §5.2): an object may only be updated after a
//! release date, proven by a certificate chain from a trusted certificate
//! authority to a time service.
//!
//! ```text
//! cargo run --example time_capsule
//! ```

use pesos::crypto::{CertificateBuilder, KeyPair};
use pesos::{ControllerConfig, PesosController};

fn main() {
    let controller =
        PesosController::new(ControllerConfig::sgx_simulator(1)).expect("bootstrap failed");
    let archivist = controller.register_client("archivist");

    // Trust anchors: a certificate authority endorses the time service.
    let ca = KeyPair::from_seed(b"example-ca");
    let time_service = KeyPair::from_seed(b"example-time-service");
    let ca_hex = pesos::crypto::hex_encode(&ca.public().to_bytes());
    let ts_hex = pesos::crypto::hex_encode(&time_service.public().to_bytes());

    const RELEASE_DATE: u64 = 1_700_000_000;
    let policy = controller
        .put_policy(
            &archivist,
            &format!(
                "update :- certificateSays(\"{ca_hex}\", 'ts'(TSKEY)) and \
                 certificateSays(TSKEY, 'time'(T)) and ge(T, {RELEASE_DATE})\n\
                 read :- sessionKeyIs(U)\n\
                 delete :- sessionKeyIs(\"archivist\")"
            ),
        )
        .expect("policy");

    controller
        .put(
            &archivist,
            "capsule/1977",
            b"sealed until release",
            Some(policy),
            None,
            &[],
        )
        .expect("initial put (object had no policy yet)");

    // The CA's endorsement of the time service (long lived).
    let endorsement = CertificateBuilder::new("svc:time", time_service.public())
        .claim("ts", vec![ts_hex.clone()])
        .issue("example-ca", &ca);

    // A time statement from *before* the release date does not unlock it.
    let too_early = CertificateBuilder::new("stmt:time", time_service.public())
        .claim("time", vec![(RELEASE_DATE - 5_000).to_string()])
        .issue("svc:time", &time_service);
    let attempt = controller.put(
        &archivist,
        "capsule/1977",
        b"opened",
        None,
        None,
        &[endorsement.clone(), too_early],
    );
    println!("update before release date rejected: {}", attempt.is_err());

    // After the release date the same chain authorises the update.
    let after = CertificateBuilder::new("stmt:time", time_service.public())
        .claim("time", vec![(RELEASE_DATE + 60).to_string()])
        .issue("svc:time", &time_service);
    let version = controller
        .put(
            &archivist,
            "capsule/1977",
            b"opened",
            None,
            None,
            &[endorsement, after],
        )
        .expect("update after release date");
    println!("capsule opened at version {version}");

    let (value, _) = controller.get(&archivist, "capsule/1977", &[]).unwrap();
    println!("contents: {}", String::from_utf8_lossy(&value));
}
