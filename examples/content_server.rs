//! Content server (paper §5.1): per-object access-control lists over the
//! REST interface, including asynchronous writes and result polling. One
//! controller serves it, as a one-partition cluster: the cluster is where
//! REST requests are dispatched.
//!
//! ```text
//! cargo run --example content_server
//! ```

use pesos::core::{ClientRequest, RestMethod, RestRequest, RestStatus};
use pesos::{ClusterConfig, ControllerCluster};

fn main() {
    let server =
        ControllerCluster::new(ClusterConfig::sgx_simulator(1, 1)).expect("bootstrap failed");
    let alice = server.register_client("alice");
    let bob = server.register_client("bob");
    let admin = server.register_client("admin");

    // The §5.1 example policy: Alice and Bob read, only Alice updates, only
    // the administrator deletes.
    let resp = server.handle(
        &alice,
        ClientRequest::new(RestRequest {
            method: RestMethod::PutPolicy,
            key: "acl".into(),
            value: b"read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\n\
                     update :- sessionKeyIs(\"alice\")\n\
                     destroy :- sessionKeyIs(\"admin\")"
                .to_vec(),
            policy_id: None,
            asynchronous: false,
            tx_id: None,
            expected_version: None,
        }),
    );
    assert_eq!(resp.status, RestStatus::Ok);
    let policy_hex = String::from_utf8(resp.value).unwrap();
    println!("policy id: {policy_hex}");

    // Alice uploads content asynchronously.
    let resp = server.handle(
        &alice,
        ClientRequest::new(
            RestRequest::put("site/index.html", b"<h1>Pesos content server</h1>".to_vec())
                .with_policy(policy_hex.clone())
                .asynchronous(),
        ),
    );
    assert_eq!(resp.status, RestStatus::Accepted);
    let op = resp.operation_id.unwrap();
    server.drain_async();
    let resp = server.handle(
        &alice,
        ClientRequest::new(RestRequest::new(RestMethod::PollResult, op.to_string())),
    );
    println!(
        "async upload completed: {:?} (version {:?})",
        resp.status, resp.version
    );

    // Bob fetches the page; Eve (unknown identity with a session) is denied.
    let resp = server.handle(
        &bob,
        ClientRequest::new(RestRequest::get("site/index.html")),
    );
    println!("bob GET -> {:?} ({} bytes)", resp.status, resp.value.len());

    let eve = server.register_client("eve");
    let resp = server.handle(
        &eve,
        ClientRequest::new(RestRequest::get("site/index.html")),
    );
    println!(
        "eve GET -> {:?} ({})",
        resp.status,
        resp.detail.unwrap_or_default()
    );

    // Bob cannot replace the page, the administrator can delete it.
    let resp = server.handle(
        &bob,
        ClientRequest::new(RestRequest::put("site/index.html", b"defaced".to_vec())),
    );
    println!("bob PUT -> {:?}", resp.status);
    let resp = server.handle(
        &admin,
        ClientRequest::new(RestRequest::delete("site/index.html")),
    );
    println!("admin DELETE -> {:?}", resp.status);
}
