//! The stored form of a policy does not depend on how it is evaluated:
//! every policy of `examples/` and the benchmark's `policy_source(0)`
//! compiles to the bytes, and so the [`PolicyId`], it compiled to before the
//! evaluator ran typed instructions (values captured at that commit).

use pesos_crypto::KeyPair;
use pesos_policy::{compile, CompiledPolicy};

fn sources() -> Vec<(&'static str, String)> {
    let ca = KeyPair::from_seed(b"example-ca");
    let ca_hex = pesos_crypto::hex_encode(&ca.public().to_bytes());
    vec![
        (
            "examples/content_server.rs",
            "read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\n\
             update :- sessionKeyIs(\"alice\")\n\
             destroy :- sessionKeyIs(\"admin\")"
                .into(),
        ),
        (
            "examples/quickstart.rs",
            "read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\n\
             update :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"alice\")"
                .into(),
        ),
        (
            "examples/mandatory_access_logging.rs",
            "read :- objId(THIS, O) and objId(LOG, L) and currVersion(O, V) and \
                     sessionKeyIs(U) and objSays(L, LV, 'read'(O, V, U))\n\
             update :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"alice\")"
                .into(),
        ),
        (
            "examples/time_capsule.rs",
            format!(
                "update :- certificateSays(\"{ca_hex}\", 'ts'(TSKEY)) and \
                 certificateSays(TSKEY, 'time'(T)) and ge(T, 1700000000)\n\
                 read :- sessionKeyIs(U)\n\
                 delete :- sessionKeyIs(\"archivist\")"
            ),
        ),
        (
            "examples/versioned_store.rs",
            "update :- ( objId(this, O) and currVersion(O, CV) and nextVersion(CV + 1) ) \
             or ( objId(this, NULL) and nextVersion(0) )\n\
             read :- sessionKeyIs(U)\n\
             delete :- sessionKeyIs(\"writer\")"
                .into(),
        ),
        (
            "benchmark/src/target.rs::policy_source(0)",
            "read :- objId(LOG, L) and sessionKeyIs(U) and objSays(L, LV, 'grant'(U, 0))\n\
             update :- objId(THIS, O) and currVersion(O, CV) and nextVersion(CV + 1) and sessionKeyIs(\"writer\")\n\
             delete :- sessionKeyIs(\"writer\")"
                .into(),
        ),
    ]
}

/// `(stored bytes, policy id)` per source, in the order of [`sources`].
const AT_THE_PARENT: [(usize, &str); 6] = [
    (
        78,
        "8786d53b2d8228ccb9d23d6ca8e41b093928f35ca4c4084ea434612271cad061",
    ),
    (
        78,
        "24fc8c6a5e2ce4e0b5974a08c44406248a075d3376f635ef697cb60d4ce063e1",
    ),
    (
        151,
        "ab1115957e5de528bad8310ebec7639ad93a116a51c914bb5ffb140b9049581f",
    ),
    (
        180,
        "54d03b82f7ed1cccaece91af8977d2a9a3ab2840a9fe07670889517f751d40cb",
    ),
    (
        124,
        "e4f61f25c5812ec76c0efeb87e7d336734179e3eb9e8f4689aa60b3ec59b610e",
    ),
    (
        169,
        "665cff89d4737362366e86bbcf5b976db50d4ce32db9933676b04a8efb806fed",
    ),
];

#[test]
fn stored_bytes_and_ids_are_what_they_were() {
    for ((origin, source), (length, id)) in sources().into_iter().zip(AT_THE_PARENT) {
        let policy = compile(&source).unwrap_or_else(|e| panic!("{origin}: {e}"));
        let bytes = policy.to_bytes();
        assert_eq!(bytes.len(), length, "{origin}");
        assert_eq!(policy.id().to_hex(), id, "{origin}");
        // And the bytes load back into the same policy, instructions and all.
        assert_eq!(
            CompiledPolicy::from_bytes(&bytes).unwrap(),
            policy,
            "{origin}"
        );
    }
}
